#include "boolexpr/formula.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace paxml {

FormulaArena::FormulaArena() {
  // Handles 0 and 1 are the constants in every arena.
  nodes_.push_back(FNode{FormulaKind::kFalse});
  nodes_.push_back(FNode{FormulaKind::kTrue});
}

Formula FormulaArena::Intern(FormulaKind kind, uint32_t a, uint32_t b) {
  NodeKey key{kind, a, b};
  auto it = interned_.find(key);
  if (it != interned_.end()) return it->second;
  const Formula f = static_cast<Formula>(nodes_.size());
  FNode n;
  n.kind = kind;
  if (kind == FormulaKind::kVar) {
    n.var = a;
  } else {
    n.lhs = static_cast<Formula>(a);
    n.rhs = static_cast<Formula>(b);
  }
  nodes_.push_back(n);
  interned_.emplace(key, f);
  return f;
}

Formula FormulaArena::Var(VarId v) {
  return Intern(FormulaKind::kVar, v, 0);
}

bool FormulaArena::AreComplements(Formula a, Formula b) const {
  const FNode& na = nodes_[static_cast<size_t>(a)];
  const FNode& nb = nodes_[static_cast<size_t>(b)];
  return (na.kind == FormulaKind::kNot && na.lhs == b) ||
         (nb.kind == FormulaKind::kNot && nb.lhs == a);
}

Formula FormulaArena::Not(Formula f) {
  if (f == kFalseFormula) return kTrueFormula;
  if (f == kTrueFormula) return kFalseFormula;
  const FNode& n = nodes_[static_cast<size_t>(f)];
  if (n.kind == FormulaKind::kNot) return n.lhs;  // ¬¬f = f
  return Intern(FormulaKind::kNot, static_cast<uint32_t>(f), 0);
}

Formula FormulaArena::MakeAnd(Formula a, Formula b) {
  if (AreComplements(a, b)) return kFalseFormula;
  // Canonical operand order makes hash-consing commutative.
  if (a > b) std::swap(a, b);
  return Intern(FormulaKind::kAnd, static_cast<uint32_t>(a),
                static_cast<uint32_t>(b));
}

Formula FormulaArena::MakeOr(Formula a, Formula b) {
  if (AreComplements(a, b)) return kTrueFormula;
  if (a > b) std::swap(a, b);
  return Intern(FormulaKind::kOr, static_cast<uint32_t>(a),
                static_cast<uint32_t>(b));
}

Formula FormulaArena::AndAll(const std::vector<Formula>& fs) {
  Formula acc = kTrueFormula;
  for (Formula f : fs) acc = And(acc, f);
  return acc;
}

Formula FormulaArena::OrAll(const std::vector<Formula>& fs) {
  Formula acc = kFalseFormula;
  for (Formula f : fs) acc = Or(acc, f);
  return acc;
}

std::optional<bool> FormulaArena::ConstValue(Formula f) const {
  if (f == kFalseFormula) return false;
  if (f == kTrueFormula) return true;
  return std::nullopt;
}

VarId FormulaArena::var(Formula f) const {
  PAXML_CHECK(kind(f) == FormulaKind::kVar);
  return nodes_[static_cast<size_t>(f)].var;
}

std::vector<VarId> FormulaArena::CollectVars(Formula f) const {
  std::vector<VarId> out;
  std::vector<Formula> stack = {f};
  std::unordered_map<Formula, bool> seen;
  while (!stack.empty()) {
    Formula cur = stack.back();
    stack.pop_back();
    if (seen.count(cur)) continue;
    seen[cur] = true;
    const FNode& n = nodes_[static_cast<size_t>(cur)];
    switch (n.kind) {
      case FormulaKind::kVar:
        out.push_back(n.var);
        break;
      case FormulaKind::kNot:
        stack.push_back(n.lhs);
        break;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
        stack.push_back(n.lhs);
        stack.push_back(n.rhs);
        break;
      default:
        break;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool FormulaArena::ContainsVar(Formula f, VarId v) const {
  std::vector<Formula> stack = {f};
  std::unordered_map<Formula, bool> seen;
  while (!stack.empty()) {
    Formula cur = stack.back();
    stack.pop_back();
    if (seen.count(cur)) continue;
    seen[cur] = true;
    const FNode& n = nodes_[static_cast<size_t>(cur)];
    if (n.kind == FormulaKind::kVar && n.var == v) return true;
    if (n.kind == FormulaKind::kNot) stack.push_back(n.lhs);
    if (n.kind == FormulaKind::kAnd || n.kind == FormulaKind::kOr) {
      stack.push_back(n.lhs);
      stack.push_back(n.rhs);
    }
  }
  return false;
}

size_t FormulaArena::DagSize(Formula f) const {
  std::vector<Formula> stack = {f};
  std::unordered_map<Formula, bool> seen;
  size_t count = 0;
  while (!stack.empty()) {
    Formula cur = stack.back();
    stack.pop_back();
    if (seen.count(cur)) continue;
    seen[cur] = true;
    ++count;
    const FNode& n = nodes_[static_cast<size_t>(cur)];
    if (n.kind == FormulaKind::kNot) stack.push_back(n.lhs);
    if (n.kind == FormulaKind::kAnd || n.kind == FormulaKind::kOr) {
      stack.push_back(n.lhs);
      stack.push_back(n.rhs);
    }
  }
  return count;
}

Result<bool> FormulaArena::Evaluate(
    Formula f,
    const std::function<std::optional<bool>(VarId)>& assignment) const {
  std::unordered_map<Formula, bool> memo;
  // Explicit stack with post-order evaluation to avoid recursion depth limits.
  struct Item {
    Formula f;
    bool expanded;
  };
  std::vector<Item> stack = {{f, false}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (memo.count(item.f)) continue;
    const FNode& n = nodes_[static_cast<size_t>(item.f)];
    switch (n.kind) {
      case FormulaKind::kFalse:
        memo[item.f] = false;
        break;
      case FormulaKind::kTrue:
        memo[item.f] = true;
        break;
      case FormulaKind::kVar: {
        std::optional<bool> v = assignment(n.var);
        if (!v) {
          return Status::InvalidArgument(
              StringFormat("unbound variable v%u in Evaluate", n.var));
        }
        memo[item.f] = *v;
        break;
      }
      case FormulaKind::kNot:
        if (!item.expanded) {
          stack.push_back({item.f, true});
          stack.push_back({n.lhs, false});
        } else {
          memo[item.f] = !memo.at(n.lhs);
        }
        break;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
        if (!item.expanded) {
          stack.push_back({item.f, true});
          stack.push_back({n.lhs, false});
          stack.push_back({n.rhs, false});
        } else {
          const bool l = memo.at(n.lhs);
          const bool r = memo.at(n.rhs);
          memo[item.f] = (n.kind == FormulaKind::kAnd) ? (l && r) : (l || r);
        }
        break;
    }
  }
  return memo.at(f);
}

Formula FormulaArena::Substitute(
    Formula f, const std::function<std::optional<Formula>(VarId)>& binding) {
  std::unordered_map<Formula, Formula> memo;
  struct Item {
    Formula f;
    bool expanded;
  };
  std::vector<Item> stack = {{f, false}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (memo.count(item.f)) continue;
    // Note: reading kind/operands via accessors because nodes_ may grow
    // (reallocate) as substitution interns new nodes.
    const FormulaKind k = kind(item.f);
    switch (k) {
      case FormulaKind::kFalse:
      case FormulaKind::kTrue:
        memo[item.f] = item.f;
        break;
      case FormulaKind::kVar: {
        const VarId v = nodes_[static_cast<size_t>(item.f)].var;
        std::optional<Formula> b = binding(v);
        memo[item.f] = b ? *b : item.f;
        break;
      }
      case FormulaKind::kNot: {
        const Formula child = lhs(item.f);
        if (!item.expanded) {
          stack.push_back({item.f, true});
          stack.push_back({child, false});
        } else {
          memo[item.f] = Not(memo.at(child));
        }
        break;
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        const Formula l = lhs(item.f);
        const Formula r = rhs(item.f);
        if (!item.expanded) {
          stack.push_back({item.f, true});
          stack.push_back({l, false});
          stack.push_back({r, false});
        } else {
          memo[item.f] = (k == FormulaKind::kAnd) ? And(memo.at(l), memo.at(r))
                                                  : Or(memo.at(l), memo.at(r));
        }
        break;
      }
    }
  }
  return memo.at(f);
}

std::string FormulaArena::ToString(
    Formula f, const std::function<std::string(VarId)>& namer) const {
  auto name = [&](VarId v) {
    return namer ? namer(v) : StringFormat("v%u", v);
  };
  std::function<std::string(Formula, int)> render = [&](Formula g,
                                                        int parent_prec) {
    const FNode& n = nodes_[static_cast<size_t>(g)];
    switch (n.kind) {
      case FormulaKind::kFalse:
        return std::string("F");
      case FormulaKind::kTrue:
        return std::string("T");
      case FormulaKind::kVar:
        return name(n.var);
      case FormulaKind::kNot:
        return "!" + render(n.lhs, 3);
      case FormulaKind::kAnd: {
        std::string s = render(n.lhs, 2) + " & " + render(n.rhs, 2);
        return parent_prec > 2 ? "(" + s + ")" : s;
      }
      case FormulaKind::kOr: {
        std::string s = render(n.lhs, 1) + " | " + render(n.rhs, 1);
        return parent_prec > 1 ? "(" + s + ")" : s;
      }
    }
    return std::string("?");
  };
  return render(f, 0);
}

Formula FormulaArena::Transfer(const FormulaArena& src, Formula f) {
  std::unordered_map<Formula, Formula> memo;
  struct Item {
    Formula f;
    bool expanded;
  };
  std::vector<Item> stack = {{f, false}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (memo.count(item.f)) continue;
    const FormulaKind k = src.kind(item.f);
    switch (k) {
      case FormulaKind::kFalse:
        memo[item.f] = kFalseFormula;
        break;
      case FormulaKind::kTrue:
        memo[item.f] = kTrueFormula;
        break;
      case FormulaKind::kVar:
        memo[item.f] = Var(src.nodes_[static_cast<size_t>(item.f)].var);
        break;
      case FormulaKind::kNot: {
        const Formula child = src.lhs(item.f);
        if (!item.expanded) {
          stack.push_back({item.f, true});
          stack.push_back({child, false});
        } else {
          memo[item.f] = Not(memo.at(child));
        }
        break;
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        const Formula l = src.lhs(item.f);
        const Formula r = src.rhs(item.f);
        if (!item.expanded) {
          stack.push_back({item.f, true});
          stack.push_back({l, false});
          stack.push_back({r, false});
        } else {
          memo[item.f] = (k == FormulaKind::kAnd) ? And(memo.at(l), memo.at(r))
                                                  : Or(memo.at(l), memo.at(r));
        }
        break;
      }
    }
  }
  return memo.at(f);
}

}  // namespace paxml
