// The bottom-up qualifier pass (extended ParBoX, Section 3.1).
//
// One post-order traversal computes, for every node v and every QVect entry
// e, the vectors
//    QV_v(e)  — e matches at v (see query_plan.h for the exact semantics),
//    QDV_v(e) — e matches at v or at some descendant of v,
// using only the children's vectors (locality is what makes per-fragment
// partial evaluation possible). Virtual nodes take their (QV, QDV) rows from
// a hook — constants in a centralized run, fresh variables in a partial run.
//
// Cost: O(|E| * |T|) domain operations, |E| = number of QVect entries.

#ifndef PAXML_EVAL_QUALIFIER_PASS_H_
#define PAXML_EVAL_QUALIFIER_PASS_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "eval/domain.h"
#include "xml/tree.h"
#include "xpath/query_plan.h"

namespace paxml {

/// Flat per-node qualifier vectors (row-major: node * entry_count + entry).
template <typename D>
struct QualVectors {
  using Value = typename D::Value;

  size_t entry_count = 0;
  std::vector<Value> qv;
  std::vector<Value> qdv;

  Value QV(NodeId v, int e) const {
    return qv[static_cast<size_t>(v) * entry_count + static_cast<size_t>(e)];
  }
  Value QDV(NodeId v, int e) const {
    return qdv[static_cast<size_t>(v) * entry_count + static_cast<size_t>(e)];
  }
  Value* QVRow(NodeId v) { return qv.data() + static_cast<size_t>(v) * entry_count; }
  Value* QDVRow(NodeId v) { return qdv.data() + static_cast<size_t>(v) * entry_count; }
  const Value* QVRow(NodeId v) const {
    return qv.data() + static_cast<size_t>(v) * entry_count;
  }
  const Value* QDVRow(NodeId v) const {
    return qdv.data() + static_cast<size_t>(v) * entry_count;
  }
};

/// Supplies (QV, QDV) rows for virtual nodes. Entry index is the second
/// argument. When absent, virtual nodes contribute all-false rows (inert).
template <typename V>
using VirtualQualHook = std::function<std::pair<V, V>(NodeId, int)>;

namespace eval_internal {

/// Does the entry's node test hold at v? Always a concrete boolean.
inline bool EntryTestMatches(const Tree& tree, NodeId v,
                             const CompiledQuery::Entry& e) {
  switch (e.test) {
    case TestKind::kLabel:
      return tree.IsElement(v) && tree.label(v) == e.label;
    case TestKind::kWildcard:
      return tree.IsElement(v);
    case TestKind::kAnyNode:
      return true;
    case TestKind::kTextEq:
      return tree.IsText(v) && tree.text(v) == e.text;
    case TestKind::kValCmp: {
      if (!tree.IsText(v)) return false;
      auto num = ParseNumber(tree.text(v));
      return num && EvalCmp(e.op, *num, e.number);
    }
  }
  return false;
}

}  // namespace eval_internal

/// Computes the QV/QDV rows of a single node from its (already computed)
/// children rows: the post-order step of the bottom-up pass, exposed so that
/// PaX2 can interleave it with its pre-order selection computation.
///
/// `scratch` holds the children aggregates while the node is computed. The
/// caller owns it and passes the same buffer for every node of a traversal,
/// so the step allocates nothing once it has grown to 2 * |entries|; its
/// contents on entry do not matter.
template <typename D>
void ComputeQualRowsAtNode(
    const Tree& tree, const CompiledQuery& query, D* domain, NodeId v,
    const VirtualQualHook<typename D::Value>& virtual_hook,
    QualVectors<D>* vectors, std::vector<typename D::Value>* scratch,
    uint64_t* counter = nullptr) {
  using Value = typename D::Value;
  const std::vector<CompiledQuery::Entry>& entries = query.entries();
  const size_t ec = entries.size();
  if (ec == 0) return;

  Value* qv_row = vectors->QVRow(v);
  Value* qdv_row = vectors->QDVRow(v);

  if (tree.IsVirtual(v)) {
    for (size_t e = 0; e < ec; ++e) {
      if (virtual_hook) {
        auto [qv, qdv] = virtual_hook(v, static_cast<int>(e));
        qv_row[e] = qv;
        qdv_row[e] = qdv;
      }
      if (counter) ++*counter;
    }
    return;
  }

  // Aggregates over children, shared by all entries of this node:
  //   qcv[e]  = OR_child QV_child(e)      (some child matches)
  //   qadv[e] = OR_child QDV_child(e)     (some proper descendant matches)
  scratch->assign(2 * ec, domain->False());
  Value* qcv = scratch->data();
  Value* qadv = qcv + ec;
  for (NodeId c : tree.children(v)) {
    const Value* cqv = vectors->QVRow(c);
    const Value* cqdv = vectors->QDVRow(c);
    for (size_t e = 0; e < ec; ++e) {
      qcv[e] = domain->Or(qcv[e], cqv[e]);
      qadv[e] = domain->Or(qadv[e], cqdv[e]);
    }
  }

  // Evaluates a qualifier expression at v. Atom lookups only touch entries
  // with smaller indices (topological order), which are already final in
  // qv_row/qdv_row for the self/descendant-or-self axes.
  auto eval_qual = [&](int qual_id, auto&& self) -> Value {
    const CompiledQuery::QualNode& n =
        query.qual_nodes()[static_cast<size_t>(qual_id)];
    switch (n.kind) {
      case QualNodeKind::kTrue:
        return domain->True();
      case QualNodeKind::kAtom:
        switch (n.axis) {
          case Axis::kChild:
            return qcv[static_cast<size_t>(n.entry)];
          case Axis::kProperDescendant:
            return qadv[static_cast<size_t>(n.entry)];
          case Axis::kDescendantOrSelf:
            return qdv_row[static_cast<size_t>(n.entry)];
          case Axis::kSelf:
            return qv_row[static_cast<size_t>(n.entry)];
          case Axis::kNone:
            break;
        }
        PAXML_CHECK(false);
        return domain->False();
      case QualNodeKind::kAnd:
        return domain->And(self(n.left, self), self(n.right, self));
      case QualNodeKind::kOr:
        return domain->Or(self(n.left, self), self(n.right, self));
      case QualNodeKind::kNot:
        return domain->Not(self(n.left, self));
    }
    PAXML_CHECK(false);
    return domain->False();
  };

  for (size_t e = 0; e < ec; ++e) {
    const CompiledQuery::Entry& entry = entries[e];
    Value value =
        domain->FromBool(eval_internal::EntryTestMatches(tree, v, entry));
    if (!domain->IsFalse(value)) {
      if (entry.qual >= 0) {
        value = domain->And(value, eval_qual(entry.qual, eval_qual));
      }
      switch (entry.rest_axis) {
        case Axis::kNone:
          break;
        case Axis::kChild:
          value = domain->And(value, qcv[static_cast<size_t>(entry.rest)]);
          break;
        case Axis::kProperDescendant:
          value = domain->And(value, qadv[static_cast<size_t>(entry.rest)]);
          break;
        case Axis::kDescendantOrSelf:
          // QDV of the rest at v = QV_v(rest) OR qadv(rest); rest < e, so
          // qdv_row[rest] is already final.
          value = domain->And(value, qdv_row[static_cast<size_t>(entry.rest)]);
          break;
        case Axis::kSelf:
          PAXML_CHECK(false);
          break;
      }
    }
    qv_row[e] = value;
    qdv_row[e] = domain->Or(value, qadv[e]);
    if (counter) ++*counter;
  }
}

/// Computes QualVectors for (a fragment of) `tree` bottom-up.
///
/// `counter`, when non-null, is incremented once per (node, entry) domain
/// operation group — the unit in which the paper states computation costs.
template <typename D>
QualVectors<D> RunQualifierPass(
    const Tree& tree, const CompiledQuery& query, D* domain,
    const VirtualQualHook<typename D::Value>& virtual_hook = {},
    uint64_t* counter = nullptr) {
  const size_t ec = query.entries().size();

  QualVectors<D> out;
  out.entry_count = ec;
  out.qv.assign(tree.size() * ec, domain->False());
  out.qdv.assign(tree.size() * ec, domain->False());
  if (tree.empty() || ec == 0) return out;

  // Post-order traversal: children are fully processed before their parent.
  struct Item {
    NodeId v;
    bool expanded;
  };
  std::vector<Item> stack = {{tree.root(), false}};
  std::vector<typename D::Value> scratch;
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (!item.expanded) {
      stack.push_back({item.v, true});
      for (NodeId c : tree.children(item.v)) stack.push_back({c, false});
      continue;
    }
    ComputeQualRowsAtNode(tree, query, domain, item.v, virtual_hook, &out,
                          &scratch, counter);
  }
  return out;
}

/// Evaluates qualifier expression `qual_id` at node `v` from final vectors.
/// Used by the selection pass (Stage 2 of PaX3), where all qualifier values
/// are known (or residual formulas).
template <typename D>
typename D::Value EvalQualAtNode(const Tree& tree, const CompiledQuery& query,
                                 D* domain, const QualVectors<D>& vectors,
                                 NodeId v, int qual_id) {
  using Value = typename D::Value;
  const CompiledQuery::QualNode& n = query.qual_nodes()[static_cast<size_t>(qual_id)];
  switch (n.kind) {
    case QualNodeKind::kTrue:
      return domain->True();
    case QualNodeKind::kAtom: {
      switch (n.axis) {
        case Axis::kChild: {
          Value acc = domain->False();
          for (NodeId c : tree.children(v)) {
            acc = domain->Or(acc, vectors.QV(c, n.entry));
          }
          return acc;
        }
        case Axis::kProperDescendant: {
          Value acc = domain->False();
          for (NodeId c : tree.children(v)) {
            acc = domain->Or(acc, vectors.QDV(c, n.entry));
          }
          return acc;
        }
        case Axis::kDescendantOrSelf:
          return vectors.QDV(v, n.entry);
        case Axis::kSelf:
          return vectors.QV(v, n.entry);
        case Axis::kNone:
          break;
      }
      PAXML_CHECK(false);
      return domain->False();
    }
    case QualNodeKind::kAnd:
      return domain->And(
          EvalQualAtNode(tree, query, domain, vectors, v, n.left),
          EvalQualAtNode(tree, query, domain, vectors, v, n.right));
    case QualNodeKind::kOr:
      return domain->Or(EvalQualAtNode(tree, query, domain, vectors, v, n.left),
                        EvalQualAtNode(tree, query, domain, vectors, v, n.right));
    case QualNodeKind::kNot:
      return domain->Not(
          EvalQualAtNode(tree, query, domain, vectors, v, n.left));
  }
  PAXML_CHECK(false);
  return domain->False();
}

/// Evaluates qualifier expression `qual_id` at the *document node* whose only
/// child is `root`. Child atoms look at the root element itself; descendant
/// atoms at its descendant-or-self closure; self atoms are false (the
/// document node is not a real node).
template <typename D>
typename D::Value EvalQualAtDoc(const CompiledQuery& query, D* domain,
                                const QualVectors<D>& vectors, NodeId root,
                                int qual_id) {
  const CompiledQuery::QualNode& n = query.qual_nodes()[static_cast<size_t>(qual_id)];
  switch (n.kind) {
    case QualNodeKind::kTrue:
      return domain->True();
    case QualNodeKind::kAtom:
      switch (n.axis) {
        case Axis::kChild:
          return vectors.QV(root, n.entry);
        case Axis::kProperDescendant:
        case Axis::kDescendantOrSelf:
          return vectors.QDV(root, n.entry);
        case Axis::kSelf:
          return domain->False();
        case Axis::kNone:
          break;
      }
      PAXML_CHECK(false);
      return domain->False();
    case QualNodeKind::kAnd:
      return domain->And(EvalQualAtDoc(query, domain, vectors, root, n.left),
                         EvalQualAtDoc(query, domain, vectors, root, n.right));
    case QualNodeKind::kOr:
      return domain->Or(EvalQualAtDoc(query, domain, vectors, root, n.left),
                        EvalQualAtDoc(query, domain, vectors, root, n.right));
    case QualNodeKind::kNot:
      return domain->Not(EvalQualAtDoc(query, domain, vectors, root, n.left));
  }
  PAXML_CHECK(false);
  return domain->False();
}

}  // namespace paxml

#endif  // PAXML_EVAL_QUALIFIER_PASS_H_
