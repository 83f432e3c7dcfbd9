#include "engine/optimizer.h"

#include <algorithm>
#include <utility>

#include "engine/binder.h"
#include "lint/logical_verifier.h"
#include "lint/translation_validator.h"

namespace bornsql::engine {
namespace {

// Test-only fault injection; see SetOptimizerSabotageForTesting.
std::function<void(const std::string&, plan::LogicalNode*)>&
SabotageHook() {
  static std::function<void(const std::string&, plan::LogicalNode*)> hook;
  return hook;
}

}  // namespace

void SetOptimizerSabotageForTesting(
    std::function<void(const std::string& rule, plan::LogicalNode* root)>
        hook) {
  SabotageHook() = std::move(hook);
}

namespace {

using plan::LogicalJoinKind;
using plan::LogicalKind;
using plan::LogicalNode;
using plan::LogicalPtr;

// ---------------------------------------------------------------------------
// cte_inline: CteRef -> Relabel(clone of the body). Bodies were themselves
// optimized (and therefore inlined) when built, so the clone is already
// reference-free; the recursion below is defensive.
// ---------------------------------------------------------------------------

size_t InlineCtes(LogicalPtr* slot) {
  size_t count = 0;
  LogicalNode* n = slot->get();
  if (n->kind == LogicalKind::kCteRef && n->cte && n->cte->plan) {
    LogicalPtr relabel = plan::MakeLogical(LogicalKind::kRelabel);
    relabel->loc = n->loc;
    relabel->qualifier = n->qualifier;
    relabel->schema = n->schema;
    relabel->children.push_back(plan::CloneLogical(*n->cte->plan));
    *slot = std::move(relabel);
    count = 1;
    n = slot->get();
  }
  for (auto& c : n->children) count += InlineCtes(&c);
  return count;
}

// ---------------------------------------------------------------------------
// constant_folding: replace maximal column-free subexpressions with their
// value. Folding is skipped (not the whole rule -- just that subtree's top)
// when evaluation errors, so expressions that fail at runtime keep failing
// at runtime with the same message.
// ---------------------------------------------------------------------------

size_t FoldExpr(sql::ExprPtr* slot);

size_t FoldExprChildren(sql::Expr* e) {
  size_t count = 0;
  if (e->left) count += FoldExpr(&e->left);
  if (e->right) count += FoldExpr(&e->right);
  for (auto& a : e->args) count += FoldExpr(&a);
  for (auto& p : e->partition_by) count += FoldExpr(&p);
  for (auto& o : e->window_order_by) count += FoldExpr(&o.first);
  for (auto& w : e->when_clauses) {
    count += FoldExpr(&w.first);
    count += FoldExpr(&w.second);
  }
  if (e->else_clause) count += FoldExpr(&e->else_clause);
  return count;
}

size_t FoldExpr(sql::ExprPtr* slot) {
  sql::Expr* e = slot->get();
  if (e == nullptr || e->kind == sql::ExprKind::kLiteral) return 0;
  // Subqueries are folded by the builder before rules run; never evaluate
  // one here (BindsTo rejects them anyway -- this is belt and braces).
  bool foldable = e->kind != sql::ExprKind::kScalarSubquery &&
                  e->kind != sql::ExprKind::kInSubquery &&
                  e->kind != sql::ExprKind::kExists;
  static const Schema kEmpty;
  if (foldable && BindsTo(*e, kEmpty)) {
    Result<Value> v = EvalConstExpr(*e);
    if (v.ok()) {
      sql::ExprPtr lit = sql::MakeLiteral(std::move(*v));
      lit->loc = e->loc;
      *slot = std::move(lit);
      return 1;
    }
  }
  return FoldExprChildren(e);
}

// A conjunct folded to a numeric non-zero literal accepts every row and can
// be dropped. NULL and zero literals must stay: they reject rows.
bool IsLiteralTrue(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kLiteral && !e.literal.is_null() &&
         (e.literal.is_int() || e.literal.is_double()) && e.literal.Truthy();
}

size_t FoldNode(LogicalNode* n) {
  if (n->kind == LogicalKind::kCteRef) return 0;  // bodies folded when built
  size_t count = 0;
  for (auto& c : n->conjuncts) count += FoldExpr(&c);
  if (n->kind == LogicalKind::kFilter) {
    auto& cs = n->conjuncts;
    const size_t before = cs.size();
    cs.erase(std::remove_if(cs.begin(), cs.end(),
                            [](const sql::ExprPtr& c) {
                              return IsLiteralTrue(*c);
                            }),
             cs.end());
    count += before - cs.size();
  }
  for (auto& item : n->items) {
    if (item.expr) count += FoldExpr(&item.expr);
  }
  for (auto& k : n->keys) {
    count += FoldExpr(&k.left);
    count += FoldExpr(&k.right);
  }
  if (n->on_condition) count += FoldExpr(&n->on_condition);
  for (auto& g : n->group_exprs) count += FoldExpr(&g);
  // Aggregate and window calls themselves never fold (the binder rejects
  // them), but their argument and key subtrees do.
  for (auto& a : n->agg_calls) count += FoldExpr(&a);
  for (auto& w : n->windows) count += FoldExpr(&w.call);
  for (auto& k : n->sort_keys) {
    if (k.expr) count += FoldExpr(&k.expr);
  }
  for (auto& c : n->children) {
    count += FoldNode(c.get());
    // Splice out a Filter whose conjuncts all folded to TRUE.
    while (c->kind == LogicalKind::kFilter && c->conjuncts.empty()) {
      LogicalPtr grandchild = std::move(c->children[0]);
      c = std::move(grandchild);
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// predicate_pushdown: for each Filter directly above a join spine, sink each
// conjunct as deep as it binds -- to a single leaf when exactly one leaf
// binds it (constants go to leaf 0), otherwise to the lowest join output
// that binds it. Conjuncts that bind nowhere below stay in the top Filter
// (reordered bindable-first), preserving the monolithic planner's placement
// and its error behavior for ambiguous references.
// ---------------------------------------------------------------------------

size_t PushdownSite(LogicalPtr* fslot) {
  LogicalNode* filter = fslot->get();

  // Left-deep spine: joins[0] is the deepest join, joins.back() the one
  // directly under the filter. Leaf i sits right of joins[i-1] (leaf 0 is
  // the deepest join's left child).
  std::vector<LogicalNode*> joins;
  for (LogicalNode* j = filter->children[0].get();
       j->kind == LogicalKind::kJoin; j = j->children[0].get()) {
    joins.push_back(j);
  }
  std::reverse(joins.begin(), joins.end());
  const size_t njoins = joins.size();

  std::vector<LogicalPtr*> leaf_slots;
  leaf_slots.push_back(&joins[0]->children[0]);
  for (LogicalNode* j : joins) leaf_slots.push_back(&j->children[1]);
  // Leaf i (i >= 1) is the right child of joins[i-1]. When that join is a
  // LEFT join the leaf is null-supplying: a WHERE conjunct filtered there
  // would be undone by the join's null-extension, so it must stay above the
  // join (leaf 0 is on the preserved side of every join in the spine).
  std::vector<bool> leaf_null_supplying(leaf_slots.size(), false);
  for (size_t i = 1; i < leaf_slots.size(); ++i) {
    leaf_null_supplying[i] =
        joins[i - 1]->join_kind == LogicalJoinKind::kLeft;
  }
  // Node pointers stay valid across the slot rewrites below; capture the
  // schemas up front.
  std::vector<const Schema*> leaf_schema;
  leaf_schema.reserve(leaf_slots.size());
  for (LogicalPtr* s : leaf_slots) leaf_schema.push_back(&(*s)->schema);

  std::vector<LogicalNode*> leaf_filter(leaf_slots.size(), nullptr);
  auto get_leaf_filter = [&](size_t i) {
    if (leaf_filter[i] == nullptr) {
      LogicalPtr f = plan::MakeLogical(LogicalKind::kFilter);
      f->loc = filter->loc;
      f->schema = *leaf_schema[i];
      f->children.push_back(std::move(*leaf_slots[i]));
      leaf_filter[i] = f.get();
      *leaf_slots[i] = std::move(f);
    }
    return leaf_filter[i];
  };

  size_t moved = 0;
  static const Schema kEmpty;

  // Pass 1: conjuncts owned by exactly one leaf; constants go to leaf 0.
  for (auto& c : filter->conjuncts) {
    size_t bind_count = 0;
    size_t bind_ref = 0;
    for (size_t i = 0; i < leaf_schema.size(); ++i) {
      if (BindsTo(*c, *leaf_schema[i])) {
        ++bind_count;
        bind_ref = i;
      }
    }
    if (bind_count == leaf_schema.size() && BindsTo(*c, kEmpty)) {
      bind_count = 1;
      bind_ref = 0;
    }
    if (bind_count == 1 && !leaf_null_supplying[bind_ref]) {
      get_leaf_filter(bind_ref)->conjuncts.push_back(std::move(c));
      ++moved;
    }
  }

  // Pass 2: walk the spine bottom-up and apply what binds at each level --
  // leaf 0 first, then each intermediate join output.
  for (auto& c : filter->conjuncts) {
    if (c && BindsTo(*c, *leaf_schema[0])) {
      get_leaf_filter(0)->conjuncts.push_back(std::move(c));
      ++moved;
    }
  }
  std::vector<LogicalNode*> mid_filter(njoins, nullptr);
  for (size_t k = 0; k + 1 < njoins; ++k) {
    for (auto& c : filter->conjuncts) {
      if (!c || !BindsTo(*c, joins[k]->schema)) continue;
      if (mid_filter[k] == nullptr) {
        LogicalPtr f = plan::MakeLogical(LogicalKind::kFilter);
        f->loc = filter->loc;
        f->schema = joins[k]->schema;
        LogicalPtr& slot = joins[k + 1]->children[0];
        f->children.push_back(std::move(slot));
        mid_filter[k] = f.get();
        slot = std::move(f);
      }
      mid_filter[k]->conjuncts.push_back(std::move(c));
      ++moved;
    }
  }

  // What remains stays here: conjuncts bindable at the top join first, then
  // the leftovers (these fail to bind and lowering surfaces the monolith's
  // error for them).
  std::vector<sql::ExprPtr> top;
  std::vector<sql::ExprPtr> leftovers;
  for (auto& c : filter->conjuncts) {
    if (!c) continue;
    if (BindsTo(*c, joins.back()->schema)) {
      top.push_back(std::move(c));
    } else {
      leftovers.push_back(std::move(c));
    }
  }
  filter->conjuncts = std::move(top);
  for (auto& c : leftovers) filter->conjuncts.push_back(std::move(c));

  if (filter->conjuncts.empty()) {
    LogicalPtr child = std::move(filter->children[0]);
    *fslot = std::move(child);
  }
  return moved;
}

size_t PushdownAll(LogicalPtr* slot) {
  LogicalNode* n = slot->get();
  if (n->kind == LogicalKind::kCteRef) return 0;
  size_t moved = 0;
  for (auto& c : n->children) moved += PushdownAll(&c);
  if (n->kind == LogicalKind::kFilter && n->children.size() == 1 &&
      n->children[0]->kind == LogicalKind::kJoin) {
    moved += PushdownSite(slot);
  }
  return moved;
}

// ---------------------------------------------------------------------------
// equi_join_extraction: turn `a.x = b.y` filter conjuncts into join keys on
// the join whose sides they straddle (cross -> inner), and convert a LEFT
// join's all-equi ON clause into a key list. Each Filter above a join sweeps
// the whole spine below it, deepest join first, so a conjunct that predicate
// pushdown left higher up (e.g. one whose names are ambiguous in the full
// concatenation but side-resolvable at its join) still reaches its join --
// exactly where the monolith extracted it.
// ---------------------------------------------------------------------------

size_t ExtractSite(LogicalPtr* fslot) {
  LogicalNode* filter = fslot->get();
  std::vector<LogicalNode*> spine;  // top-down, crossing intermediate Filters
  for (LogicalNode* n = filter->children[0].get();;) {
    if (n->kind == LogicalKind::kJoin) {
      spine.push_back(n);
      n = n->children[0].get();
    } else if (n->kind == LogicalKind::kFilter) {
      n = n->children[0].get();
    } else {
      break;
    }
  }

  size_t count = 0;
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    LogicalNode* join = *it;
    if (join->join_kind == LogicalJoinKind::kLeft) continue;
    const Schema& ls = join->children[0]->schema;
    const Schema& rs = join->children[1]->schema;
    for (auto& c : filter->conjuncts) {
      if (!c) continue;
      const sql::Expr* le = nullptr;
      const sql::Expr* re = nullptr;
      if (IsEquiPair(*c, ls, rs, &le, &re)) {
        join->keys.push_back({sql::CloneExpr(*le), sql::CloneExpr(*re)});
        join->join_kind = LogicalJoinKind::kInner;
        c.reset();
        ++count;
      }
    }
  }

  filter->conjuncts.erase(
      std::remove_if(filter->conjuncts.begin(), filter->conjuncts.end(),
                     [](const sql::ExprPtr& c) { return c == nullptr; }),
      filter->conjuncts.end());
  if (filter->conjuncts.empty()) {
    LogicalPtr child = std::move(filter->children[0]);
    *fslot = std::move(child);
  }
  return count;
}

size_t ExtractAll(LogicalPtr* slot) {
  LogicalNode* n = slot->get();
  if (n->kind == LogicalKind::kCteRef) return 0;
  size_t count = 0;
  for (auto& c : n->children) count += ExtractAll(&c);
  if (n->kind == LogicalKind::kJoin &&
      n->join_kind == LogicalJoinKind::kLeft && n->on_condition) {
    // LEFT JOIN: keys only when every ON conjunct is an equi pair (the
    // monolith's all-or-nothing rule; a partial split would change which
    // rows the probe side preserves).
    std::vector<sql::ExprPtr> on;
    SplitConjuncts(sql::CloneExpr(*n->on_condition), &on);
    const Schema& ls = n->children[0]->schema;
    const Schema& rs = n->children[1]->schema;
    bool all_equi = !on.empty();
    for (auto& c : on) {
      const sql::Expr* le = nullptr;
      const sql::Expr* re = nullptr;
      if (!IsEquiPair(*c, ls, rs, &le, &re)) {
        all_equi = false;
        break;
      }
    }
    if (all_equi) {
      for (auto& c : on) {
        const sql::Expr* le = nullptr;
        const sql::Expr* re = nullptr;
        IsEquiPair(*c, ls, rs, &le, &re);
        n->keys.push_back({sql::CloneExpr(*le), sql::CloneExpr(*re)});
      }
      n->on_condition.reset();
      count += on.size();
    }
  }
  if (n->kind == LogicalKind::kFilter && n->children.size() == 1 &&
      n->children[0]->kind == LogicalKind::kJoin) {
    count += ExtractSite(slot);
  }
  return count;
}

// ---------------------------------------------------------------------------
// filter_reorder: collapse stacked Filters into one conjunct list (innermost
// conjuncts first -- the same FilterOp chain either way), then stable-sort
// the list by estimated selectivity class so the cheapest/most selective
// predicates run first. Estimates are the classic textbook constants; ties
// keep source order.
// ---------------------------------------------------------------------------

int SelectivityRank(const sql::Expr& e) {
  switch (e.kind) {
    case sql::ExprKind::kBinary:
      switch (e.binary_op) {
        case sql::BinaryOp::kEq:
          return 0;  // ~0.1
        case sql::BinaryOp::kLt:
        case sql::BinaryOp::kLtEq:
        case sql::BinaryOp::kGt:
        case sql::BinaryOp::kGtEq:
        case sql::BinaryOp::kNotEq:
          return 2;  // ~0.3
        case sql::BinaryOp::kLike:
          return 4;  // ~0.5
        default:
          return 6;  // ~0.7
      }
    case sql::ExprKind::kInSet:
    case sql::ExprKind::kInList:
      return 1;  // ~0.2
    case sql::ExprKind::kIsNull:
      return 3;  // ~0.4
    default:
      return 6;  // ~0.7
  }
}

size_t ReorderFilters(LogicalPtr* slot) {
  LogicalNode* n = slot->get();
  if (n->kind == LogicalKind::kCteRef) return 0;
  size_t count = 0;
  for (auto& c : n->children) count += ReorderFilters(&c);
  if (n->kind != LogicalKind::kFilter) return count;

  while (n->children[0]->kind == LogicalKind::kFilter) {
    LogicalNode* child = n->children[0].get();
    std::vector<sql::ExprPtr> merged = std::move(child->conjuncts);
    for (auto& c : n->conjuncts) merged.push_back(std::move(c));
    n->conjuncts = std::move(merged);
    LogicalPtr grand = std::move(child->children[0]);
    n->children[0] = std::move(grand);
    ++count;
  }

  if (n->conjuncts.size() > 1) {
    std::vector<const sql::Expr*> before;
    before.reserve(n->conjuncts.size());
    for (auto& c : n->conjuncts) before.push_back(c.get());
    std::stable_sort(n->conjuncts.begin(), n->conjuncts.end(),
                     [](const sql::ExprPtr& a, const sql::ExprPtr& b) {
                       return SelectivityRank(*a) < SelectivityRank(*b);
                     });
    for (size_t i = 0; i < before.size(); ++i) {
      if (n->conjuncts[i].get() != before[i]) {
        ++count;
        break;
      }
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// projection_pruning: propagate the set of required columns top-down and
// insert pass-through Projects under joins and aggregates that drop what
// nobody above references. Bare Scans are never wrapped (keeps index-join
// eligibility and the physical leaf shapes tests pin), and a wrap only
// happens when it strictly narrows. Any reference that fails to resolve
// (e.g. a deliberately ambiguous conjunct awaiting its bind error at
// lowering) conservatively marks everything required.
// ---------------------------------------------------------------------------

bool AddRefs(const sql::Expr& e, const Schema& s, std::vector<bool>* req) {
  if (e.kind == sql::ExprKind::kColumnRef) {
    const size_t idx = s.Find(e.qualifier, e.column);
    if (idx >= Schema::kAmbiguous) return false;
    (*req)[idx] = true;
    return true;
  }
  bool ok = true;
  if (e.left) ok &= AddRefs(*e.left, s, req);
  if (e.right) ok &= AddRefs(*e.right, s, req);
  for (const auto& a : e.args) ok &= AddRefs(*a, s, req);
  for (const auto& p : e.partition_by) ok &= AddRefs(*p, s, req);
  for (const auto& o : e.window_order_by) ok &= AddRefs(*o.first, s, req);
  for (const auto& w : e.when_clauses) {
    ok &= AddRefs(*w.first, s, req);
    ok &= AddRefs(*w.second, s, req);
  }
  if (e.else_clause) ok &= AddRefs(*e.else_clause, s, req);
  return ok;
}

struct Pruner {
  size_t inserted = 0;

  static std::vector<bool> All(size_t n) { return std::vector<bool>(n, true); }
  static size_t Count(const std::vector<bool>& v) {
    size_t n = 0;
    for (bool b : v) n += b ? 1 : 0;
    return n;
  }
  // New index of original column `i` after dropping the columns not in
  // `kept`.
  static size_t Rank(const std::vector<bool>& kept, size_t i) {
    size_t r = 0;
    for (size_t j = 0; j < i && j < kept.size(); ++j) r += kept[j] ? 1 : 0;
    return r;
  }

  // Visit returns the node's "kept mask": which of its original output
  // columns its final (pruned) output retains, in order. Joins narrow when
  // their children get wrapped; everything positional above a narrowed
  // subtree (pass-through ordinals, sort ordinals) is remapped with the
  // mask, while name-based expressions need no fixup.

  // Narrows `slot`'s output to `req` (original coordinates) by inserting a
  // pass-through Project where that strictly narrows. Never wraps a bare
  // Scan (keeps index-join eligibility and the physical leaf shapes).
  // Returns the slot's final kept mask.
  std::vector<bool> WrapChild(plan::LogicalPtr* slot, std::vector<bool> req) {
    LogicalNode* child = slot->get();
    if (req.size() != child->schema.size()) {
      req = All(child->schema.size());
    }
    if (Count(req) == 0) req[0] = true;  // zero-width rows are not a thing
    std::vector<bool> ckept = Visit(child, req);
    if (child->kind == LogicalKind::kScan || Count(req) == Count(ckept)) {
      return ckept;
    }
    LogicalPtr proj = plan::MakeLogical(LogicalKind::kProject);
    proj->loc = child->loc;
    for (size_t i = 0; i < req.size(); ++i) {
      if (!req[i]) continue;
      plan::ProjectItem item;
      item.ordinal = Rank(ckept, i);  // position in the child's new output
      proj->items.push_back(std::move(item));
      proj->schema.Add(child->schema.column(i));
    }
    proj->children.push_back(std::move(*slot));
    *slot = std::move(proj);
    ++inserted;
    return req;
  }

  std::vector<bool> Visit(LogicalNode* n, std::vector<bool> req) {
    if (req.size() != n->schema.size()) req = All(n->schema.size());
    switch (n->kind) {
      case LogicalKind::kScan:
      case LogicalKind::kSingleRow:
      case LogicalKind::kCteRef:  // bodies are pruned when optimized
        return All(n->schema.size());
      case LogicalKind::kRelabel:
      case LogicalKind::kLimit:
        return Visit(n->children[0].get(), std::move(req));
      case LogicalKind::kDistinct:
        // DISTINCT compares whole input rows; everything below is required.
        return Visit(n->children[0].get(),
                     All(n->children[0]->schema.size()));
      case LogicalKind::kUnion:
        // Children are core Projects (width-stable), so the union's own
        // output never narrows.
        for (auto& c : n->children) Visit(c.get(), req);
        return All(n->schema.size());
      case LogicalKind::kFilter: {
        LogicalNode* child = n->children[0].get();
        std::vector<bool> creq = req;
        bool ok = true;
        for (const auto& c : n->conjuncts) {
          ok &= AddRefs(*c, child->schema, &creq);
        }
        if (!ok) creq = All(child->schema.size());
        return Visit(child, std::move(creq));
      }
      case LogicalKind::kSort: {
        LogicalNode* child = n->children[0].get();
        std::vector<bool> creq = req;
        bool ok = true;
        for (const auto& k : n->sort_keys) {
          if (k.expr) {
            ok &= AddRefs(*k.expr, child->schema, &creq);
          } else if (k.ordinal < creq.size()) {
            creq[k.ordinal] = true;
          }
        }
        if (!ok) creq = All(child->schema.size());
        std::vector<bool> ckept = Visit(child, std::move(creq));
        for (auto& k : n->sort_keys) {
          if (!k.expr) k.ordinal = Rank(ckept, k.ordinal);
        }
        return ckept;
      }
      case LogicalKind::kProject: {
        LogicalNode* child = n->children[0].get();
        std::vector<bool> creq(child->schema.size(), false);
        bool ok = true;
        // Items are never dropped (positional ORDER BY and union arity
        // depend on them), so every item's inputs are required.
        for (const auto& item : n->items) {
          if (item.expr) {
            ok &= AddRefs(*item.expr, child->schema, &creq);
          } else if (item.ordinal < creq.size()) {
            creq[item.ordinal] = true;
          }
        }
        if (!ok) creq = All(child->schema.size());
        std::vector<bool> ckept = Visit(child, std::move(creq));
        for (auto& item : n->items) {
          if (!item.expr) item.ordinal = Rank(ckept, item.ordinal);
        }
        return All(n->schema.size());
      }
      case LogicalKind::kWindow: {
        LogicalNode* child = n->children[0].get();
        std::vector<bool> creq(child->schema.size(), false);
        for (size_t i = 0; i < creq.size() && i < req.size(); ++i) {
          creq[i] = req[i];
        }
        bool ok = true;
        for (const auto& w : n->windows) {
          ok &= AddRefs(*w.call, child->schema, &creq);
        }
        if (!ok) creq = All(child->schema.size());
        std::vector<bool> out = Visit(child, std::move(creq));
        out.resize(out.size() + n->windows.size(), true);
        return out;
      }
      case LogicalKind::kAggregate: {
        LogicalNode* child = n->children[0].get();
        std::vector<bool> creq(child->schema.size(), false);
        bool ok = true;
        for (const auto& g : n->group_exprs) {
          ok &= AddRefs(*g, child->schema, &creq);
        }
        for (const auto& a : n->agg_calls) {
          ok &= AddRefs(*a, child->schema, &creq);
        }
        if (!ok) creq = All(child->schema.size());
        WrapChild(&n->children[0], std::move(creq));
        return All(n->schema.size());
      }
      case LogicalKind::kJoin: {
        LogicalNode* left = n->children[0].get();
        LogicalNode* right = n->children[1].get();
        const size_t lw = left->schema.size();
        const size_t rw = right->schema.size();
        std::vector<bool> combined(lw + rw, false);
        for (size_t i = 0; i < combined.size() && i < req.size(); ++i) {
          combined[i] = req[i];
        }
        bool ok = req.size() == lw + rw;
        if (n->on_condition) {
          ok &= AddRefs(*n->on_condition, n->schema, &combined);
        }
        std::vector<bool> lreq(combined.begin(), combined.begin() + lw);
        std::vector<bool> rreq(combined.begin() + lw, combined.end());
        for (const auto& k : n->keys) {
          ok &= AddRefs(*k.left, left->schema, &lreq);
          ok &= AddRefs(*k.right, right->schema, &rreq);
        }
        if (!ok) {
          lreq = All(lw);
          rreq = All(rw);
        }
        std::vector<bool> lkept = WrapChild(&n->children[0], std::move(lreq));
        std::vector<bool> rkept = WrapChild(&n->children[1], std::move(rreq));
        lkept.insert(lkept.end(), rkept.begin(), rkept.end());
        return lkept;
      }
    }
    return All(n->schema.size());
  }
};

}  // namespace

const std::vector<std::string>& OptimizerRuleNames() {
  static const std::vector<std::string> kNames = {
      "derived_table_pullup", "cte_inline",
      "constant_folding",     "predicate_pushdown",
      "equi_join_extraction", "filter_reorder",
      "projection_pruning",
  };
  return kNames;
}

bool* OptimizerRuleFlag(OptimizerRules* rules, const std::string& rule) {
  if (rule == "derived_table_pullup") return &rules->derived_table_pullup;
  if (rule == "constant_folding") return &rules->constant_folding;
  if (rule == "predicate_pushdown") return &rules->predicate_pushdown;
  if (rule == "equi_join_extraction") return &rules->equi_join_extraction;
  if (rule == "filter_reorder") return &rules->filter_reorder;
  if (rule == "projection_pruning") return &rules->projection_pruning;
  return nullptr;
}

Status Optimizer::Run(plan::LogicalNode* root) {
  // Built trees always have a non-Filter, non-CteRef root (a Project, or
  // Union/Sort/Limit above one), so rules that replace nodes only ever need
  // the child slots below `root`.
  auto run_rule = [&](const char* name, bool active,
                      const std::function<size_t()>& fn) -> Status {
    if (!active) return Status::OK();
    // Snapshot the tree before the rule so the translation validator can
    // compare against it (CteBindings are shared by the clone, which is
    // exactly what the cte_inline body check needs).
    plan::LogicalPtr before;
    if (config_->verify_rewrites) before = plan::CloneLogical(*root);
    const uint64_t t0 = recorder_ ? recorder_->NowNs() : 0;
    const size_t rewrites = fn();
    if (stats_) stats_->Record(name, rewrites);
    if (recorder_ && trace_) {
      obs::TraceSpan span;
      span.name = name;
      span.category = "optimizer";
      span.start_ns = t0;
      span.dur_ns = recorder_->NowNs() - t0;
      trace_->spans.push_back(std::move(span));
    }
    const bool sabotaged = static_cast<bool>(SabotageHook());
    if (sabotaged) SabotageHook()(name, root);
    if (rewrites > 0 || sabotaged) {
      plan::RecomputeSchemas(root);
      if (rewrites > 0 && config_->verify_plans) {
        Status s = lint::VerifyLogicalPlanStatus(*root);
        if (!s.ok()) {
          return Status::Internal("after optimizer rule '" + std::string(name) +
                                  "': " + s.message());
        }
      }
    }
    if (before != nullptr) {
      size_t checks = 0;
      std::vector<lint::Diagnostic> diags =
          lint::ValidateRewrite(name, *before, *root, rewrites, &checks);
      if (stats_) stats_->RecordValidation(name, diags.size());
      if (validation_log_ != nullptr) {
        ++validation_log_->applications;
        validation_log_->checks += checks;
        validation_log_->diags.insert(validation_log_->diags.end(),
                                      diags.begin(), diags.end());
      } else if (!diags.empty()) {
        std::vector<std::string> lines;
        lines.reserve(diags.size());
        for (const lint::Diagnostic& d : diags) {
          lines.push_back(lint::FormatDiagnostic(d));
        }
        std::string joined = lines[0];
        for (size_t i = 1; i < lines.size(); ++i) joined += "; " + lines[i];
        return Status::Internal("translation validation failed after rule '" +
                                std::string(name) + "': " + joined);
      }
    }
    return Status::OK();
  };
  auto over_children = [&](size_t (*fn)(LogicalPtr*)) {
    size_t total = 0;
    for (auto& c : root->children) total += fn(&c);
    return total;
  };

  BORNSQL_RETURN_IF_ERROR(run_rule(
      "cte_inline", !config_->materialize_ctes,
      [&] { return over_children(&InlineCtes); }));
  BORNSQL_RETURN_IF_ERROR(run_rule(
      "constant_folding", config_->rules.constant_folding,
      [&] { return FoldNode(root); }));
  BORNSQL_RETURN_IF_ERROR(run_rule(
      "predicate_pushdown", config_->rules.predicate_pushdown,
      [&] { return over_children(&PushdownAll); }));
  BORNSQL_RETURN_IF_ERROR(run_rule(
      "equi_join_extraction",
      config_->rules.equi_join_extraction &&
          config_->join_strategy != JoinStrategy::kNestedLoop,
      [&] { return over_children(&ExtractAll); }));
  BORNSQL_RETURN_IF_ERROR(run_rule(
      "filter_reorder", config_->rules.filter_reorder,
      [&] { return over_children(&ReorderFilters); }));
  BORNSQL_RETURN_IF_ERROR(run_rule(
      "projection_pruning", config_->rules.projection_pruning, [&] {
        Pruner p;
        p.Visit(root, Pruner::All(root->schema.size()));
        return p.inserted;
      }));
  return Status::OK();
}

Status Optimizer::Run(plan::LogicalPlan* plan) {
  BORNSQL_RETURN_IF_ERROR(Run(plan->root.get()));
  plan->ctes = plan::CollectCtes(*plan->root);
  return Status::OK();
}

}  // namespace bornsql::engine
