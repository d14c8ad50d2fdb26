// The top-down selection pass (Procedure topDown, Fig. 4 of the paper).
//
// One pre-order traversal computes, for every node v and selection entry i,
// SV_v(i) = "v is reachable from the document node via the prefix η1/…/ηi".
// A stack holds the ancestors' vectors; the invariant that the stack top
// summarizes the whole stack makes every step O(1) vector lookups:
//
//    label/wildcard: SV_v(i) = SV_parent(i-1) ∧ term(v, ηi) ∧ qual_i(v)
//    '//':           SV_v(i) = SV_v(i-1) ∨ SV_parent(i)
//    ε[q] filter:    SV_v(i) = SV_v(i-1) ∧ qual_i(v)
//
// Nodes whose last entry is constant-true are answers (`ans`); nodes whose
// last entry is a residual formula are candidate answers (`cans`) to be
// settled by unification (Stage 3 of PaX3 / Stage 2 of PaX2). When the
// traversal reaches a virtual node F_k it records the current stack top —
// exactly the vector the fragment F_k's z-variables stand for (Example 3.4).
//
// Cost: O(|SVect| * |T|) domain operations.

#ifndef PAXML_EVAL_SELECTION_PASS_H_
#define PAXML_EVAL_SELECTION_PASS_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "eval/domain.h"
#include "xml/tree.h"
#include "xpath/query_plan.h"

namespace paxml {

/// Qualifier-value oracle: value of qualifier expression `qual_id` at node v.
/// PaX3 reads resolved qualifier vectors; PaX2 injects fresh variables;
/// the centralized evaluator reads boolean vectors.
template <typename V>
using QualAtHook = std::function<V(NodeId v, int qual_id)>;

template <typename D>
struct SelectionOutput {
  using Value = typename D::Value;

  /// Nodes certainly in the answer (last entry == constant true).
  std::vector<NodeId> answers;

  /// Candidate answers with their residual formulas (never constants).
  std::vector<std::pair<NodeId, Value>> candidates;

  /// Stack top recorded at each virtual node: virtual node id -> SV vector
  /// of its parent (what the child fragment's stack-init variables denote).
  std::vector<std::pair<NodeId, std::vector<Value>>> virtual_stack_tops;

  /// Domain operations performed (the paper's computation-cost unit).
  uint64_t ops = 0;
};

/// Runs the selection pass over (a fragment of) `tree`.
///
/// `init_stack` is the SV vector of the *parent* of the tree/fragment root:
/// the document-node vector for the global root (see MakeDocVector), or a
/// vector of fresh variables for a non-root fragment.
///
/// `qual_at` may be empty when the query has no qualifiers.
template <typename D>
SelectionOutput<D> RunSelectionPass(
    const Tree& tree, const CompiledQuery& query, D* domain,
    std::vector<typename D::Value> init_stack,
    const QualAtHook<typename D::Value>& qual_at = {}) {
  using Value = typename D::Value;
  const std::vector<CompiledQuery::SelEntry>& sel = query.selection();
  const size_t m = sel.size();
  PAXML_CHECK_EQ(init_stack.size(), m);

  SelectionOutput<D> out;
  if (tree.empty()) return out;
  // Boolean queries (empty selection path) are resolved by the caller from
  // the root qualifier; the traversal below assumes at least one real step.
  PAXML_CHECK_GT(m, 1u);

  const size_t last = m - 1;

  // Explicit DFS. `stack` is flat and parallels the ancestor chain: the
  // vector of depth d occupies [d*m, (d+1)*m), the top is the last m values.
  // It grows to O(depth * m) once and then allocates nothing per node.
  struct Item {
    NodeId v;
    bool expanded;
  };
  std::vector<Item> work = {{tree.root(), false}};
  std::vector<Value> stack = std::move(init_stack);

  while (!work.empty()) {
    Item item = work.back();
    work.pop_back();
    if (item.expanded) {
      stack.resize(stack.size() - m);
      continue;
    }
    const NodeId v = item.v;
    const size_t base = stack.size();

    if (tree.IsVirtual(v)) {
      // The child fragment continues the traversal; hand it the context.
      const Value* top = stack.data() + base - m;
      out.virtual_stack_tops.emplace_back(v, std::vector<Value>(top, top + m));
      continue;
    }

    // The node's vector is written in place above its parent's; growth may
    // move the buffer, so both pointers are taken after the resize.
    stack.resize(base + m, domain->False());
    const Value* parent_vec = stack.data() + base - m;
    Value* vec = stack.data() + base;
    // Entry 0 (document node) is false at every real node: vec[0] stays F.
    for (size_t i = 1; i < m; ++i) {
      const CompiledQuery::SelEntry& e = sel[i];
      switch (e.kind) {
        case SelKind::kLabel: {
          const bool term = tree.IsElement(v) && tree.label(v) == e.label;
          Value val = term ? parent_vec[i - 1] : domain->False();
          if (term && e.qual >= 0 && !domain->IsFalse(val)) {
            val = domain->And(val, qual_at(v, e.qual));
          }
          vec[i] = val;
          break;
        }
        case SelKind::kWildcard: {
          const bool term = tree.IsElement(v);
          Value val = term ? parent_vec[i - 1] : domain->False();
          if (term && e.qual >= 0 && !domain->IsFalse(val)) {
            val = domain->And(val, qual_at(v, e.qual));
          }
          vec[i] = val;
          break;
        }
        case SelKind::kDescend:
          vec[i] = domain->Or(vec[i - 1], parent_vec[i]);
          break;
        case SelKind::kSelfFilter: {
          Value val = vec[i - 1];
          if (e.qual >= 0 && !domain->IsFalse(val)) {
            val = domain->And(val, qual_at(v, e.qual));
          }
          vec[i] = val;
          break;
        }
        case SelKind::kRoot:
          PAXML_CHECK(false);  // only entry 0, skipped above
          break;
      }
      ++out.ops;
    }

    const Value final_value = vec[last];
    if (auto c = domain->ConstValue(final_value)) {
      if (*c) out.answers.push_back(v);
    } else {
      out.candidates.emplace_back(v, final_value);
    }

    if (tree.first_child(v) != kNullNode) {
      work.push_back({v, true});  // sentinel: pop the vector when done
      for (NodeId c : tree.children(v)) work.push_back({c, false});
    } else {
      stack.resize(base);
    }
  }
  return out;
}

/// Builds the document-node vector used as the stack init for the global
/// root: entry 0 = root-qualifier value (the paper evaluates queries at the
/// root of T), '//' entries inherit (the closure contains the document node),
/// everything else is false. `root_qual_value` must already incorporate any
/// ε[q] prefix of the query; `qual_at_doc` resolves self-filter entries
/// directly after a leading '//'.
template <typename D>
std::vector<typename D::Value> MakeDocVector(
    const CompiledQuery& query, D* domain, typename D::Value root_qual_value,
    const std::function<typename D::Value(int qual_id)>& qual_at_doc = {}) {
  using Value = typename D::Value;
  const std::vector<CompiledQuery::SelEntry>& sel = query.selection();
  std::vector<Value> vec(sel.size(), domain->False());
  vec[0] = root_qual_value;
  for (size_t i = 1; i < sel.size(); ++i) {
    switch (sel[i].kind) {
      case SelKind::kDescend:
        vec[i] = vec[i - 1];
        break;
      case SelKind::kSelfFilter: {
        Value val = vec[i - 1];
        if (sel[i].qual >= 0 && !domain->IsFalse(val)) {
          PAXML_CHECK(qual_at_doc != nullptr);
          val = domain->And(val, qual_at_doc(sel[i].qual));
        }
        vec[i] = val;
        break;
      }
      default:
        break;  // label/wildcard never match the document node
    }
  }
  return vec;
}

}  // namespace paxml

#endif  // PAXML_EVAL_SELECTION_PASS_H_
