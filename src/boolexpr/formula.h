// Boolean formulas over variables: the paper's partial-answer representation.
//
// Partial evaluation of an XPath query over a fragment cannot resolve truth
// values that depend on missing parts of the tree (subtrees behind virtual
// nodes, ancestors above the fragment root). Those unknowns become variables;
// qualifier and selection vectors then hold *formulas* instead of booleans —
// the "residual functions" of partial evaluation. The coordinator later
// substitutes variables with values received from other fragments
// (unification, Procedure evalFT).
//
// Formulas live in a FormulaArena: hash-consed DAG nodes addressed by a
// 32-bit handle. Constants kFalse/kTrue are handles 0/1 in every arena.
// Construction applies cheap local simplifications (constant folding,
// idempotence, double negation, direct complements), which keeps residual
// formulas near the sizes the paper's analysis assumes (linear in |Q| per
// vector entry in practice).

#ifndef PAXML_BOOLEXPR_FORMULA_H_
#define PAXML_BOOLEXPR_FORMULA_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace paxml {

/// Global identifier of a Boolean variable within one query evaluation.
using VarId = uint32_t;

/// Handle to a formula node within a FormulaArena.
using Formula = int32_t;

inline constexpr Formula kFalseFormula = 0;
inline constexpr Formula kTrueFormula = 1;

enum class FormulaKind : uint8_t {
  kFalse = 0,
  kTrue = 1,
  kVar = 2,
  kNot = 3,
  kAnd = 4,
  kOr = 5,
};

/// Arena of hash-consed formula nodes.
///
/// Not thread-safe; each site/evaluation owns its arena. Handles are only
/// meaningful relative to their arena; use Export/Import (serializer) or
/// Transfer to move formulas between arenas.
class FormulaArena {
 public:
  FormulaArena();

  FormulaArena(const FormulaArena&) = delete;
  FormulaArena& operator=(const FormulaArena&) = delete;
  FormulaArena(FormulaArena&&) = default;
  FormulaArena& operator=(FormulaArena&&) = default;

  // ---- Construction ------------------------------------------------------

  Formula False() const { return kFalseFormula; }
  Formula True() const { return kTrueFormula; }
  Formula Const(bool b) const { return b ? kTrueFormula : kFalseFormula; }

  /// The variable `v` as a formula.
  Formula Var(VarId v);

  Formula Not(Formula f);

  /// Constant and identical-operand folding runs inline: the qualifier
  /// aggregation calls these at every node, almost always on constants.
  Formula And(Formula a, Formula b) {
    if (a == kFalseFormula || b == kFalseFormula) return kFalseFormula;
    if (a == kTrueFormula) return b;
    if (b == kTrueFormula) return a;
    if (a == b) return a;
    return MakeAnd(a, b);
  }
  Formula Or(Formula a, Formula b) {
    if (a == kTrueFormula || b == kTrueFormula) return kTrueFormula;
    if (a == kFalseFormula) return b;
    if (b == kFalseFormula) return a;
    if (a == b) return a;
    return MakeOr(a, b);
  }

  /// Folds And/Or over a list (empty list -> identity element).
  Formula AndAll(const std::vector<Formula>& fs);
  Formula OrAll(const std::vector<Formula>& fs);

  // ---- Inspection --------------------------------------------------------

  FormulaKind kind(Formula f) const { return nodes_[static_cast<size_t>(f)].kind; }
  bool IsConst(Formula f) const { return f == kFalseFormula || f == kTrueFormula; }
  bool IsTrue(Formula f) const { return f == kTrueFormula; }
  bool IsFalse(Formula f) const { return f == kFalseFormula; }

  /// Constant value if the formula is constant.
  std::optional<bool> ConstValue(Formula f) const;

  /// Variable id of a kVar node.
  VarId var(Formula f) const;

  /// Operands (Not: lhs only).
  Formula lhs(Formula f) const { return nodes_[static_cast<size_t>(f)].lhs; }
  Formula rhs(Formula f) const { return nodes_[static_cast<size_t>(f)].rhs; }

  /// All distinct variables appearing in `f`.
  std::vector<VarId> CollectVars(Formula f) const;

  /// True iff variable `v` occurs in `f`.
  bool ContainsVar(Formula f, VarId v) const;

  /// Number of DAG nodes reachable from `f` (size of the residual function).
  size_t DagSize(Formula f) const;

  /// Total nodes allocated in this arena.
  size_t size() const { return nodes_.size(); }

  // ---- Evaluation & substitution ----------------------------------------

  /// Evaluates under a total assignment. Unbound variables are an error.
  Result<bool> Evaluate(Formula f,
                        const std::function<std::optional<bool>(VarId)>& assignment) const;

  /// Replaces variables by formulas per `binding` (unbound vars stay).
  /// Memoized over the DAG; runs in O(reachable nodes).
  Formula Substitute(Formula f,
                     const std::function<std::optional<Formula>(VarId)>& binding);

  /// Pretty-prints with a variable namer (default "v<N>").
  std::string ToString(Formula f,
                       const std::function<std::string(VarId)>& namer = {}) const;

  /// Copies `f` (and its reachable DAG) from `src` into this arena.
  Formula Transfer(const FormulaArena& src, Formula f);

 private:
  struct FNode {
    FormulaKind kind;
    VarId var = 0;
    Formula lhs = -1;
    Formula rhs = -1;
  };

  struct NodeKey {
    FormulaKind kind;
    uint32_t a;
    uint32_t b;
    bool operator==(const NodeKey& o) const {
      return kind == o.kind && a == o.a && b == o.b;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.kind);
      h = h * 0x9e3779b97f4a7c15ULL + k.a;
      h = h * 0x9e3779b97f4a7c15ULL + k.b;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  Formula Intern(FormulaKind kind, uint32_t a, uint32_t b);

  /// And/Or of two distinct non-constant operands: complement check, then
  /// interning in canonical operand order.
  Formula MakeAnd(Formula a, Formula b);
  Formula MakeOr(Formula a, Formula b);

  /// True iff a == ¬b or b == ¬a (cheap structural complement check).
  bool AreComplements(Formula a, Formula b) const;

  std::vector<FNode> nodes_;
  std::unordered_map<NodeKey, Formula, NodeKeyHash> interned_;
};

}  // namespace paxml

#endif  // PAXML_BOOLEXPR_FORMULA_H_
