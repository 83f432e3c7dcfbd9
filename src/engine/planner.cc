#include "engine/planner.h"

#include <utility>

#include "engine/binder.h"
#include "engine/lowering.h"
#include "engine/optimizer.h"

namespace bornsql::engine {

using exec::OperatorPtr;

LogicalBuildHooks Planner::MakeHooks(bool optimize) {
  LogicalBuildHooks hooks;
  if (optimize) {
    hooks.optimize = [this](plan::LogicalNode* root) { return RunRules(root); };
  }
  if (run_plan_) {
    hooks.execute =
        [this](plan::LogicalPtr root) -> Result<exec::MaterializedChunks> {
      BORNSQL_RETURN_IF_ERROR(RunRules(root.get()));
      Lowering lowering(config_, system_views_);
      BORNSQL_ASSIGN_OR_RETURN(OperatorPtr op, lowering.Lower(*root));
      return run_plan_(*op);
    };
  }
  return hooks;
}

Status Planner::RunRules(plan::LogicalNode* root) {
  Optimizer opt(config_, opt_stats_, recorder_, trace_);
  opt.set_validation_log(validation_log_);
  return opt.Run(root);
}

Result<OperatorPtr> Planner::PlanSelect(const sql::SelectStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(plan::LogicalPlan lp, BuildLogical(stmt));
  BORNSQL_RETURN_IF_ERROR(OptimizeLogical(&lp));
  return LowerLogical(lp);
}

Status Planner::FoldSubqueries(sql::Expr* expr) {
  LogicalBuilder builder(catalog_, config_, system_views_, opt_stats_,
                         MakeHooks(/*optimize=*/true));
  return builder.FoldSubqueries(expr);
}

Result<plan::LogicalPlan> Planner::BuildLogical(const sql::SelectStmt& stmt,
                                                bool optimize_ctes) {
  LogicalBuilder builder(catalog_, config_, system_views_, opt_stats_,
                         MakeHooks(optimize_ctes));
  return builder.Build(stmt);
}

Status Planner::OptimizeLogical(plan::LogicalPlan* plan) {
  Optimizer opt(config_, opt_stats_, recorder_, trace_);
  opt.set_validation_log(validation_log_);
  return opt.Run(plan);
}

Result<OperatorPtr> Planner::LowerLogical(const plan::LogicalPlan& plan) {
  Lowering lowering(config_, system_views_);
  return lowering.Lower(*plan.root);
}

}  // namespace bornsql::engine
