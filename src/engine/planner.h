// Planner facade: SELECT AST -> executable operator tree, as a three-stage
// pipeline with an explicit logical plan in the middle:
//
//   engine/logical_builder.h   AST -> naive logical tree (name-level only)
//   engine/optimizer.h         named rewrite rules over the logical tree
//   engine/lowering.h          logical tree -> bound physical operators
//
// The stages are also exposed individually (BuildLogical / OptimizeLogical /
// LowerLogical) for EXPLAIN LOGICAL, the shell's .plan command and tests.
// Optimizations -- predicate pushdown, equi-join extraction, CTE
// materialize/inline, derived-table pull-up, constant folding, filter
// reordering, projection pruning -- are all named optimizer rules with
// per-rule enable flags (EngineConfig::rules) and ablation benches.
#ifndef BORNSQL_ENGINE_PLANNER_H_
#define BORNSQL_ENGINE_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/engine_config.h"
#include "engine/logical_builder.h"
#include "exec/operators.h"
#include "obs/optimizer_stats.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"

namespace bornsql::engine {

struct RewriteValidationLog;  // engine/optimizer.h

class Planner {
 public:
  // `opt_stats` feeds born_stat_optimizer; `recorder` + `trace` add one
  // trace span per optimizer rule to the statement's trace. All three may
  // be null (and default so: existing call sites keep working).
  Planner(catalog::Catalog* catalog, const EngineConfig* config,
          const SystemCatalog* system_views = nullptr,
          obs::OptimizerStatsRegistry* opt_stats = nullptr,
          const obs::TraceRecorder* recorder = nullptr,
          obs::StatementTrace* trace = nullptr)
      : catalog_(catalog),
        config_(config),
        system_views_(system_views),
        opt_stats_(opt_stats),
        recorder_(recorder),
        trace_(trace) {}

  // Builds the operator tree for `stmt` (build + optimize + lower). The
  // returned tree is self-contained except that base-table scans borrow the
  // catalog's tables: the catalog must outlive execution, and tables must
  // not be mutated while the tree runs.
  Result<exec::OperatorPtr> PlanSelect(const sql::SelectStmt& stmt);

  // Evaluates every uncorrelated subquery inside `expr` and folds the
  // result into the tree: scalar subqueries become literals, EXISTS becomes
  // a boolean, IN (SELECT ...) becomes a hashed constant set. Correlated
  // subqueries fail with BindError when the inner plan cannot resolve a
  // column.
  Status FoldSubqueries(sql::Expr* expr);

  // Runs a lowered plan to completion. Plan-time subqueries are optimized,
  // lowered and handed to it; engine::Database installs its SELECT core's
  // run step, so they execute under the statement's memory limit,
  // verifiers, stats and spans. Without one, folding a subquery fails.
  using RunPlanFn =
      std::function<Result<exec::MaterializedChunks>(exec::Operator&)>;
  void set_run_plan(RunPlanFn run) { run_plan_ = std::move(run); }

  // ---- individual pipeline stages ----

  // AST -> logical plan. When `optimize_ctes` is false, CTE bodies are
  // built naive too (EXPLAIN LOGICAL's "before rules" rendering).
  Result<plan::LogicalPlan> BuildLogical(const sql::SelectStmt& stmt,
                                         bool optimize_ctes = true);
  // Runs the rule pipeline over `plan` in place.
  Status OptimizeLogical(plan::LogicalPlan* plan);
  // Logical -> physical. Expects an optimized plan (a naive one lowers
  // correctly but reproduces the unoptimized execution).
  Result<exec::OperatorPtr> LowerLogical(const plan::LogicalPlan& plan);

  // Collects translation-validation results (BSV011-016) into `log`
  // instead of failing the statement; see Optimizer::set_validation_log.
  void set_validation_log(RewriteValidationLog* log) {
    validation_log_ = log;
  }

 private:
  // Hook bundle for a LogicalBuilder. `optimize` controls whether CTE
  // bodies get the rule pipeline; the execute hook always runs full
  // optimize + lower (plan-time subquery results must match execution).
  LogicalBuildHooks MakeHooks(bool optimize);
  // The rule pipeline over `root`, reporting to this planner's sinks.
  Status RunRules(plan::LogicalNode* root);

  catalog::Catalog* catalog_;
  const EngineConfig* config_;
  const SystemCatalog* system_views_;  // may be null (no system views)
  obs::OptimizerStatsRegistry* opt_stats_;  // may be null
  const obs::TraceRecorder* recorder_;      // may be null
  obs::StatementTrace* trace_;              // may be null
  RewriteValidationLog* validation_log_ = nullptr;  // may be null
  RunPlanFn run_plan_;                               // may be empty
};

}  // namespace bornsql::engine

#endif  // BORNSQL_ENGINE_PLANNER_H_
