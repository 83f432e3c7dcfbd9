#include "engine/database.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_set>

#include "common/strings.h"
#include "common/timer.h"
#include "engine/binder.h"
#include "engine/optimizer.h"
#include "engine/parameters.h"
#include "engine/sql_text.h"
#include "exec/operators.h"
#include "lint/linter.h"
#include "lint/plan_verifier.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace bornsql::engine {

namespace {

// Mirrors an operator tree into the obs data model, copying any collected
// stats.
obs::PlanStatsNode CapturePlan(const exec::Operator& op) {
  obs::PlanStatsNode node;
  node.name = op.DebugString();
  node.has_stats = op.stats_enabled();
  node.stats = op.stats();
  for (const exec::Operator* child : op.children()) {
    if (child != nullptr) node.children.push_back(CapturePlan(*child));
  }
  return node;
}

// Folds an instrumented plan into the registry: per-operator-type
// aggregates, rows_scanned from the scan leaves, join_probes from each
// join's probe input. `seen` dedupes CTE subtrees shared by several gates.
void AccumulatePlanMetrics(obs::MetricsRegistry* metrics,
                           const exec::Operator& op,
                           std::unordered_set<const exec::Operator*>* seen) {
  if (!seen->insert(&op).second) return;
  const std::string type = obs::OperatorTypeOf(op.DebugString());
  metrics->RecordOperator(type, op.stats());
  if (type == "SeqScan" || type == "MaterializedScan" || type == "CteScan") {
    metrics->IncrementCounter(obs::kRowsScanned, op.stats().rows_emitted);
  }
  const std::vector<exec::Operator*> children = op.children();
  const bool is_join = type == "HashJoin" || type == "SortMergeJoin" ||
                       type == "NestedLoopJoin" || type == "IndexJoin";
  if (is_join && !children.empty() && children.front() != nullptr) {
    metrics->IncrementCounter(obs::kJoinProbes,
                              children.front()->stats().rows_emitted);
  }
  for (const exec::Operator* child : children) {
    if (child != nullptr) AccumulatePlanMetrics(metrics, *child, seen);
  }
}

// Synthetic stats for DML root nodes (Insert/Update/Delete), which are not
// iterator operators: one "open", rows_affected as the row count, and the
// statement's total wall time.
obs::OperatorStats DmlStats(size_t rows_affected, double elapsed_seconds) {
  obs::OperatorStats stats;
  stats.open_calls = 1;
  stats.rows_emitted = rows_affected;
  stats.wall_nanos = static_cast<uint64_t>(elapsed_seconds * 1e9);
  return stats;
}

// Names of the synthetic plan nodes EXPLAIN and EXPLAIN ANALYZE put over
// DML and DDL statements.
std::string InsertNodeName(const sql::InsertStmt& stmt) {
  return StrFormat("Insert(%s%s)", stmt.table.c_str(),
                   stmt.on_conflict != nullptr ? ", on conflict" : "");
}

std::string ValuesNodeName(const sql::InsertStmt& stmt) {
  return StrFormat("Values(%zu rows)", stmt.values.size());
}

std::string CreateTableNodeName(const sql::CreateTableStmt& stmt) {
  return stmt.as_select != nullptr
             ? StrFormat("CreateTableAs(%s)", stmt.table.c_str())
             : StrFormat("CreateTable(%s, %zu columns)", stmt.table.c_str(),
                         stmt.columns.size());
}

// Appends one trace span per instrumented operator, using the lifetime
// interval (first/last hook timestamps) each operator's stats collected.
// `seen` dedupes CTE subtrees shared by several gates.
void AppendOperatorSpans(const obs::TraceRecorder& recorder,
                         const exec::Operator& op, obs::StatementTrace* trace,
                         std::unordered_set<const exec::Operator*>* seen) {
  if (!seen->insert(&op).second) return;
  const obs::OperatorStats& stats = op.stats();
  if (stats.first_ns != 0) {
    obs::TraceSpan span;
    span.name = op.DebugString();
    span.category = "operator";
    span.start_ns = recorder.RelativeNs(stats.first_ns);
    span.dur_ns = stats.last_ns > stats.first_ns
                      ? stats.last_ns - stats.first_ns
                      : 0;
    trace->spans.push_back(std::move(span));
  }
  for (const exec::Operator* child : op.children()) {
    if (child != nullptr) AppendOperatorSpans(recorder, *child, trace, seen);
  }
}

}  // namespace

Result<Value> QueryResult::ScalarValue() const {
  if (rows.size() != 1 || rows[0].size() != 1) {
    return Status::InvalidArgument(
        StrFormat("expected a 1x1 result, got %zux%zu", rows.size(),
                  rows.empty() ? 0 : rows[0].size()));
  }
  return rows[0][0];
}

void Database::BeginStatement(StatementContext* ctx) {
  ctx->tracing = trace_enabled_;
  if (ctx->tracing) ctx->trace.start_ns = trace_.NowNs();
}

void Database::AddPhaseSpan(StatementContext* ctx, const char* name,
                            uint64_t start_ns) {
  if (!ctx->tracing) return;
  obs::TraceSpan span;
  span.name = name;
  span.category = "phase";
  span.start_ns = start_ns;
  span.dur_ns = trace_.NowNs() - start_ns;
  ctx->trace.spans.push_back(std::move(span));
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  StatementContext ctx;
  BeginStatement(&ctx);
  const uint64_t lex_start = ctx.tracing ? trace_.NowNs() : 0;
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
  AddPhaseSpan(&ctx, "lex", lex_start);
  ctx.key = NormalizeTokens(tokens, 0, tokens.size());
  const uint64_t parse_start = ctx.tracing ? trace_.NowNs() : 0;
  BORNSQL_ASSIGN_OR_RETURN(sql::Statement stmt,
                           sql::ParseStatementTokens(std::move(tokens)));
  AddPhaseSpan(&ctx, "parse", parse_start);
  return ExecuteTracked(&stmt, nullptr, &ctx);
}

Status Database::ExecuteScript(std::string_view sql) {
  // Lex once: the tokens give the per-statement normalized keys, then the
  // parser consumes them.
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
  const std::vector<std::string> keys = NormalizeScriptTokens(tokens);
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                           sql::ParseScriptTokens(std::move(tokens)));
  for (size_t i = 0; i < stmts.size(); ++i) {
    StatementContext ctx;
    BeginStatement(&ctx);
    ctx.key = i < keys.size() && keys.size() == stmts.size()
                  ? keys[i]
                  : FallbackStatementKey(stmts[i]);
    auto result = ExecuteTracked(&stmts[i], nullptr, &ctx);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteParsed(const sql::Statement& stmt,
                                            std::string key) {
  StatementContext ctx;
  BeginStatement(&ctx);
  ctx.key = std::move(key);
  return ExecuteTracked(&stmt, nullptr, &ctx);
}

Result<plan::LogicalPlan> Database::BuildOptimizedPlan(
    const sql::SelectStmt& stmt) {
  Planner planner = MakePlanner();
  BORNSQL_ASSIGN_OR_RETURN(plan::LogicalPlan plan,
                           planner.BuildLogical(stmt));
  BORNSQL_RETURN_IF_ERROR(planner.OptimizeLogical(&plan));
  return plan;
}

Result<QueryResult> Database::ExecuteCachedPlan(
    const plan::LogicalPlan& cached, const std::vector<Value>& args,
    std::string key) {
  StatementContext ctx;
  BeginStatement(&ctx);
  ctx.key = std::move(key);
  const SelectSource hit(cached, args);
  return ExecuteTracked(nullptr, &hit, &ctx);
}

Result<ProfiledQuery> Database::ExecuteProfiled(std::string_view sql) {
  StatementContext ctx;
  BeginStatement(&ctx);
  const uint64_t lex_start = ctx.tracing ? trace_.NowNs() : 0;
  BORNSQL_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql));
  AddPhaseSpan(&ctx, "lex", lex_start);
  ctx.key = NormalizeTokens(tokens, 0, tokens.size());
  const uint64_t parse_start = ctx.tracing ? trace_.NowNs() : 0;
  BORNSQL_ASSIGN_OR_RETURN(sql::Statement stmt,
                           sql::ParseStatementTokens(std::move(tokens)));
  AddPhaseSpan(&ctx, "parse", parse_start);
  if (stmt.kind == sql::StatementKind::kExplain) {
    return Status::InvalidArgument(
        "ExecuteProfiled expects a plain statement, not EXPLAIN");
  }
  ProfiledQuery out;
  ctx.profile_plan = &out.plan;
  BORNSQL_ASSIGN_OR_RETURN(out.result, ExecuteTracked(&stmt, nullptr, &ctx));
  return out;
}

Result<QueryResult> Database::ExecuteTracked(const sql::Statement* stmt,
                                             const SelectSource* hit,
                                             StatementContext* ctx) {
  WallTimer timer;
  // While the slow-query log is armed, eligible statements run instrumented
  // (the auto_explain.log_analyze approach) so a logged entry carries its
  // stats-annotated plan. EXPLAIN and SET never profile.
  const bool slow_armed =
      slow_query_ms_ >= 0 &&
      (stmt == nullptr || (stmt->kind != sql::StatementKind::kExplain &&
                           stmt->kind != sql::StatementKind::kSet));
  const bool want_profile = ctx->profile_plan != nullptr || slow_armed;

  StatementContext* saved_stmt = active_stmt_;
  active_stmt_ = ctx;
  const uint64_t dispatch_start = ctx->tracing ? trace_.NowNs() : 0;
  const size_t spans_before = ctx->trace.spans.size();

  obs::PlanStatsNode plan;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (stmt == nullptr) return RunSelect(*hit, want_profile ? &plan : nullptr);
    if (!want_profile) return DispatchStatement(*stmt);
    Result<ProfiledQuery> profiled = ProfileStatement(*stmt);
    if (!profiled.ok()) return profiled.status();
    plan = std::move(profiled->plan);
    return std::move(profiled->result);
  }();
  active_stmt_ = saved_stmt;

  const double elapsed_seconds = timer.ElapsedSeconds();
  const double elapsed_ms = elapsed_seconds * 1e3;
  metrics_->IncrementCounter(obs::kQueriesExecuted);
  if (!result.ok()) metrics_->IncrementCounter(obs::kQueriesFailed);
  metrics_->RecordLatency(obs::kStatementLatencyUs, elapsed_seconds);

  const uint64_t rows =
      result.ok() ? std::max<uint64_t>(result->rows.size(),
                                       result->rows_affected)
                  : 0;
  if (stmt_stats_->Record(ctx->key, elapsed_ms, rows, !result.ok())) {
    metrics_->IncrementCounter(obs::kStatementStatsEvictions);
  }

  if (slow_armed && result.ok() && elapsed_ms >= slow_query_ms_) {
    obs::SlowQueryEntry entry;
    entry.statement = ctx->key;
    entry.elapsed_ms = elapsed_ms;
    entry.threshold_ms = slow_query_ms_;
    entry.rows = rows;
    entry.plan =
        Join(obs::RenderPlanLines(plan, /*with_stats=*/true), "\n");
    slow_log_.Record(std::move(entry));
  }
  if (ctx->profile_plan != nullptr && result.ok()) {
    *ctx->profile_plan = std::move(plan);
  }

  if (ctx->tracing) {
    if (ctx->trace.spans.size() == spans_before) {
      // No fine-grained spans were recorded (pure-DML path without an
      // embedded SELECT): cover dispatch with one coarse execute span.
      AddPhaseSpan(ctx, "execute", dispatch_start);
    }
    ctx->trace.statement = ctx->key;
    ctx->trace.dur_ns = trace_.NowNs() - ctx->trace.start_ns;
    ctx->trace.rows = rows;
    ctx->trace.error = !result.ok();
    trace_.Record(std::move(ctx->trace));
  }
  return result;
}

std::string Database::TraceJson() const {
  return obs::ChromeTraceJson(trace_.Snapshot());
}

Status Database::ExportTrace(const std::string& path) const {
  const std::string json = TraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open trace file '" + path + "'");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::Internal("short write to trace file '" + path + "'");
  }
  return Status::OK();
}

Result<QueryResult> Database::DispatchStatement(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return RunSelect(SelectSource(*stmt.select));
    case sql::StatementKind::kExplain:
      return RunExplain(stmt);
    case sql::StatementKind::kCreateTable:
      return RunCreateTable(*stmt.create_table);
    case sql::StatementKind::kDropTable:
      return RunDropTable(*stmt.drop_table);
    case sql::StatementKind::kCreateIndex:
      return RunCreateIndex(*stmt.create_index);
    case sql::StatementKind::kInsert:
      return RunInsert(*stmt.insert);
    case sql::StatementKind::kUpdate:
      return RunUpdate(*stmt.update);
    case sql::StatementKind::kDelete:
      return RunDelete(*stmt.del);
    case sql::StatementKind::kSet:
      return RunSet(*stmt.set);
    case sql::StatementKind::kPrepare:
    case sql::StatementKind::kExecute:
    case sql::StatementKind::kDeallocate:
      // Prepared-statement state is per session, not per database.
      return Status::InvalidArgument(
          "PREPARE/EXECUTE/DEALLOCATE require a serving session "
          "(serve::Session)");
  }
  return Status::Internal("bad statement kind");
}

bool Database::ComposedViews::IsSystemView(const std::string& name) const {
  return (db_->extra_views_ != nullptr &&
          db_->extra_views_->IsSystemView(name)) ||
         db_->system_views_.IsSystemView(name);
}

exec::OperatorPtr Database::ComposedViews::MakeViewScan(
    const std::string& name, const std::string& qualifier) const {
  if (db_->extra_views_ != nullptr && db_->extra_views_->IsSystemView(name)) {
    return db_->extra_views_->MakeViewScan(name, qualifier);
  }
  return db_->system_views_.MakeViewScan(name, qualifier);
}

Planner Database::MakePlanner() {
  obs::StatementTrace* trace = active_stmt_ != nullptr && active_stmt_->tracing
                                   ? &active_stmt_->trace
                                   : nullptr;
  Planner planner(catalog_, &config_, &composed_views_, &opt_stats_, &trace_,
                  trace);
  planner.set_run_plan(
      [this](exec::Operator& plan) { return RunPlan(plan, nullptr); });
  return planner;
}

std::string Database::IndexJoinNote() const {
  if (!config_.use_index_joins ||
      config_.join_strategy == JoinStrategy::kHash) {
    return "";
  }
  return StrFormat(
      "note: use_index_joins is ignored under the %s join strategy "
      "(index joins require join_strategy = hash)",
      config_.join_strategy == JoinStrategy::kSortMerge ? "sort-merge"
                                                        : "nested-loop");
}

std::vector<std::string> KnownSettingNames() {
  return {"born.collect_exec_stats", "born.memory_limit", "born.plan_cache",
          "born.plan_cache_capacity", "born.session_memory_limit",
          "born.slow_query_ms", "born.trace", "born.trace_capacity",
          "born.vector_size", "born.verify_chunks", "born.verify_plans",
          "born.verify_rewrites"};
}

namespace {

// The verify_* knobs are strict booleans: only the literal values 0 and 1
// are accepted. Anything else (SET born.verify_chunks = 2, = 'yes',
// = 0.5) is a typo that would otherwise silently arm or disarm a
// verifier, so it surfaces a diagnostic naming the accepted settings.
Result<bool> StrictVerifySetting(const std::string& name,
                                 const Value& value) {
  const auto reject = [&]() {
    return Status::InvalidArgument(StrFormat(
        "invalid value %s for %s; accepted settings: 0 (off), 1 (on)",
        value.ToString().c_str(), name.c_str()));
  };
  if (value.is_null()) return reject();
  if (value.is_double() && value.AsDouble() != 0.0 &&
      value.AsDouble() != 1.0) {
    return reject();
  }
  Result<Value> v = value.CoerceTo(ValueType::kInt);
  if (!v.ok()) return reject();
  const int64_t n = v->AsInt();
  if (n != 0 && n != 1) return reject();
  return n == 1;
}

}  // namespace

Result<QueryResult> Database::RunSet(const sql::SetStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(Value value, EvalConstExpr(*stmt.value));
  constexpr std::string_view kOptPrefix = "born.opt.";
  if (stmt.name.size() > kOptPrefix.size() &&
      std::string_view(stmt.name).substr(0, kOptPrefix.size()) == kOptPrefix) {
    const std::string rule = stmt.name.substr(kOptPrefix.size());
    bool* flag = OptimizerRuleFlag(&config_.rules, rule);
    if (flag == nullptr) {
      if (rule == "cte_inline") {
        return Status::InvalidArgument(
            "optimizer rule 'cte_inline' has no born.opt flag: it is driven "
            "by the CTE mode (EngineConfig::materialize_ctes)");
      }
      std::vector<std::string> valid;
      for (const std::string& name : OptimizerRuleNames()) {
        if (OptimizerRuleFlag(&config_.rules, name) != nullptr) {
          valid.push_back(name);
        }
      }
      return Status::InvalidArgument("unknown optimizer rule '" + rule +
                                     "'; valid rules: " + Join(valid, ", "));
    }
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    *flag = v.AsInt() != 0;
    return QueryResult{};
  }
  if (stmt.name == "born.slow_query_ms") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kDouble));
    slow_query_ms_ = v.AsDouble();
  } else if (stmt.name == "born.trace") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    trace_enabled_ = v.AsInt() != 0;
  } else if (stmt.name == "born.trace_capacity") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 1) {
      return Status::InvalidArgument("born.trace_capacity must be >= 1");
    }
    trace_.set_capacity(static_cast<size_t>(v.AsInt()));
  } else if (stmt.name == "born.collect_exec_stats") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    config_.collect_exec_stats = v.AsInt() != 0;
  } else if (stmt.name == "born.vector_size") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 1) {
      return Status::InvalidArgument(
          "born.vector_size must be >= 1 (1 = tuple-at-a-time execution)");
    }
    config_.vector_size =
        std::min(static_cast<size_t>(v.AsInt()),
                 exec::Operator::kMaxVectorSize);
  } else if (stmt.name == "born.verify_plans") {
    BORNSQL_ASSIGN_OR_RETURN(bool on, StrictVerifySetting(stmt.name, value));
    config_.verify_plans = on;
  } else if (stmt.name == "born.verify_rewrites") {
    BORNSQL_ASSIGN_OR_RETURN(bool on, StrictVerifySetting(stmt.name, value));
    config_.verify_rewrites = on;
  } else if (stmt.name == "born.verify_chunks") {
    BORNSQL_ASSIGN_OR_RETURN(bool on, StrictVerifySetting(stmt.name, value));
    config_.verify_chunks = on;
  } else if (stmt.name == "born.memory_limit") {
    BORNSQL_ASSIGN_OR_RETURN(Value v, value.CoerceTo(ValueType::kInt));
    if (v.AsInt() < 0) {
      return Status::InvalidArgument(
          "born.memory_limit must be >= 0 bytes (0 = unlimited)");
    }
    query_mem_limit_ = static_cast<uint64_t>(v.AsInt());
  } else if (stmt.name == "born.plan_cache" ||
             stmt.name == "born.plan_cache_capacity" ||
             stmt.name == "born.session_memory_limit") {
    // Recognized so the diagnostic is accurate: these settings exist, but
    // they configure the serving layer (cache / session tracker), which
    // intercepts SET before it reaches a bare database.
    return Status::InvalidArgument("setting '" + stmt.name +
                                   "' requires a serving session "
                                   "(serve::Session)");
  } else {
    return Status::InvalidArgument(
        "unknown setting '" + stmt.name + "'; valid settings: " +
        Join(KnownSettingNames(), ", ") +
        ", and optimizer rule flags born.opt.<rule>");
  }
  return QueryResult{};
}

Result<QueryResult> Database::RunSelect(const SelectSource& source,
                                        obs::PlanStatsNode* profile) {
  BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                           ExecSelectToChunks(source, profile));
  QueryResult out;
  out.column_names = data.schema.ColumnNames();
  out.rows.reserve(data.row_count);
  const size_t width = data.schema.size();
  for (exec::DataChunk& chunk : data.chunks) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      Row row;
      row.reserve(width);
      for (size_t c = 0; c < width; ++c) {
        row.push_back(std::move(chunk.column(c)[i]));
      }
      out.rows.push_back(std::move(row));
    }
    chunk.Clear();  // free each chunk's buffers as its rows move out
  }
  return out;
}

Result<exec::MaterializedChunks> Database::ExecSelectToChunks(
    const SelectSource& source, obs::PlanStatsNode* profile) {
  BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr plan, PlanSelectSource(source));
  return RunPlan(*plan, profile);
}

Result<exec::OperatorPtr> Database::PlanSelectSource(
    const SelectSource& source) {
  // Every statement runs inside ExecuteTracked, which sets active_stmt_.
  StatementContext* ctx = active_stmt_;
  assert(ctx != nullptr);
  Planner planner = MakePlanner();
  const char* phase = "bind+plan";
  uint64_t phase_start = ctx->tracing ? trace_.NowNs() : 0;
  exec::OperatorPtr plan;
  if (source.cached == nullptr) {
    // Binding interleaves with planning in this engine (the planner calls
    // the binder per expression), so the trace gets one merged bind+plan
    // span.
    BORNSQL_ASSIGN_OR_RETURN(plan, planner.PlanSelect(*source.stmt));
  } else {
    // A plan-cache hit replaces lex, parse and bind+plan with a private
    // copy of the cached optimized plan, arguments substituted; only
    // lowering remains.
    plan::LogicalPlan logical = plan::ClonePlanDeep(*source.cached);
    BORNSQL_RETURN_IF_ERROR(SubstituteParamsInPlan(&logical, *source.args));
    AddPhaseSpan(ctx, "substitute", phase_start);
    phase = "lower";
    phase_start = ctx->tracing ? trace_.NowNs() : 0;
    BORNSQL_ASSIGN_OR_RETURN(plan, planner.LowerLogical(logical));
  }
  AddPhaseSpan(ctx, phase, phase_start);
  return plan;
}

Result<exec::MaterializedChunks> Database::RunPlan(
    exec::Operator& plan, obs::PlanStatsNode* profile) {
  // Every plan runs inside ExecuteTracked, which sets active_stmt_.
  StatementContext* ctx = active_stmt_;
  assert(ctx != nullptr);
  if (config_.verify_plans) {
    BORNSQL_RETURN_IF_ERROR(lint::VerifyPlanStatus(plan));
  }
  // The plan's memory budget. The operators release their reservations
  // into it before it dies (below), success or failure.
  obs::MemoryTracker query_mem("query", "query", mem_parent_);
  if (query_mem_limit_ > 0) query_mem.set_limit(query_mem_limit_);
  plan.SetMemoryTracker(&query_mem);
  plan.SetVectorSize(config_.vector_size);
  // Execution-contract checking (BSV020-025): one verifier per plan,
  // armed at every operator boundary of this tree. Counters accumulate
  // into the database's lifetime totals below, success or failure.
  lint::ChunkVerifier chunk_verifier;
  const bool verify_chunks = config_.verify_chunks;
  if (verify_chunks) plan.SetExecVerifier(&chunk_verifier);
  const bool instrument = profile != nullptr || config_.collect_exec_stats;
  if (instrument) plan.EnableStats(true);
  const uint64_t exec_start = ctx->tracing ? trace_.NowNs() : 0;
  Result<exec::MaterializedChunks> drained = exec::DrainChunks(plan);
  if (verify_chunks) {
    chunk_verifier_totals_.Add(chunk_verifier.stats());
    ++chunk_verified_queries_;
    plan.SetExecVerifier(nullptr);
  }
  AddPhaseSpan(ctx, "execute", exec_start);
  if (drained.ok()) {
    // The materialized result buffer is query memory too: charging it
    // gives streaming point lookups a truthful nonzero peak and puts the
    // rows a statement returns under the same limits as its
    // intermediate state. Released by query_mem's destructor. The charge
    // is per row and arithmetically identical to ApproxRowBytes over the
    // materialized rows these chunks stand in for.
    uint64_t result_bytes = 0;
    for (const exec::DataChunk& chunk : drained->chunks) {
      result_bytes += chunk.ApproxBytes() + chunk.size() * sizeof(Row);
    }
    Status charged = query_mem.TryReserve(result_bytes, "result buffer");
    if (!charged.ok()) drained = std::move(charged);
  }
  // Recorded on failure too: an over-limit query's peak is exactly what
  // the caller wants to see.
  last_query_peak_bytes_ = query_mem.peak();
  // The plan outlives query_mem, and so may a CTE body it shares with the
  // outer query of a plan-time subquery: release every reservation now.
  plan.SetMemoryTracker(nullptr);
  if (!drained.ok()) return drained.status();
  if (instrument) {
    std::unordered_set<const exec::Operator*> seen;
    AccumulatePlanMetrics(metrics_, plan, &seen);
    if (profile != nullptr) *profile = CapturePlan(plan);
    if (ctx->tracing) {
      std::unordered_set<const exec::Operator*> span_seen;
      AppendOperatorSpans(trace_, plan, &ctx->trace, &span_seen);
    }
  }
  return drained;
}

Result<obs::PlanStatsNode> Database::DescribePlan(const sql::Statement& stmt) {
  Planner planner = MakePlanner();
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                               planner.PlanSelect(*stmt.select));
      return CapturePlan(*plan);
    }
    case sql::StatementKind::kInsert: {
      const sql::InsertStmt& ins = *stmt.insert;
      BORNSQL_RETURN_IF_ERROR(catalog_->GetTable(ins.table).status());
      obs::PlanStatsNode root;
      root.name = InsertNodeName(ins);
      if (ins.select != nullptr) {
        BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                                 planner.PlanSelect(*ins.select));
        root.children.push_back(CapturePlan(*plan));
      } else {
        obs::PlanStatsNode values;
        values.name = ValuesNodeName(ins);
        root.children.push_back(std::move(values));
      }
      return root;
    }
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      const bool is_update = stmt.kind == sql::StatementKind::kUpdate;
      const std::string& table_name =
          is_update ? stmt.update->table : stmt.del->table;
      const sql::Expr* where =
          is_update ? stmt.update->where.get() : stmt.del->where.get();
      BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                               catalog_->GetTable(table_name));
      obs::PlanStatsNode root;
      root.name = is_update
                      ? StrFormat("Update(%s, %zu set clauses)",
                                  table_name.c_str(),
                                  stmt.update->set_clauses.size())
                      : StrFormat("Delete(%s)", table_name.c_str());
      obs::PlanStatsNode scan;
      scan.name = StrFormat("SeqScan(%s, %zu rows)", table_name.c_str(),
                            table->row_count());
      if (where != nullptr) {
        obs::PlanStatsNode filter;
        filter.name = "Filter";
        filter.children.push_back(std::move(scan));
        root.children.push_back(std::move(filter));
      } else {
        root.children.push_back(std::move(scan));
      }
      return root;
    }
    case sql::StatementKind::kCreateTable: {
      const sql::CreateTableStmt& ct = *stmt.create_table;
      obs::PlanStatsNode root;
      root.name = CreateTableNodeName(ct);
      if (ct.as_select != nullptr) {
        BORNSQL_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                                 planner.PlanSelect(*ct.as_select));
        root.children.push_back(CapturePlan(*plan));
      }
      return root;
    }
    case sql::StatementKind::kDropTable: {
      obs::PlanStatsNode root;
      root.name = StrFormat("DropTable(%s)", stmt.drop_table->table.c_str());
      return root;
    }
    case sql::StatementKind::kCreateIndex: {
      const sql::CreateIndexStmt& ci = *stmt.create_index;
      BORNSQL_RETURN_IF_ERROR(catalog_->GetTable(ci.table).status());
      obs::PlanStatsNode root;
      root.name = StrFormat("Create%sIndex(%s ON %s)",
                            ci.unique ? "Unique" : "", ci.name.c_str(),
                            ci.table.c_str());
      return root;
    }
    case sql::StatementKind::kSet: {
      obs::PlanStatsNode root;
      root.name = StrFormat("Set(%s)", stmt.set->name.c_str());
      return root;
    }
    case sql::StatementKind::kExplain:
      break;  // parser rejects nested EXPLAIN
    case sql::StatementKind::kPrepare:
    case sql::StatementKind::kExecute:
    case sql::StatementKind::kDeallocate:
      return Status::InvalidArgument(
          "EXPLAIN of PREPARE/EXECUTE/DEALLOCATE requires a serving "
          "session (serve::Session)");
  }
  return Status::Internal("bad statement kind in EXPLAIN");
}

Result<ProfiledQuery> Database::ProfileStatement(const sql::Statement& stmt) {
  ProfiledQuery out;
  WallTimer timer;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      BORNSQL_ASSIGN_OR_RETURN(
          out.result, RunSelect(SelectSource(*stmt.select), &out.plan));
      return out;
    }
    case sql::StatementKind::kInsert: {
      obs::PlanStatsNode select_profile;
      BORNSQL_ASSIGN_OR_RETURN(out.result,
                               RunInsert(*stmt.insert, &select_profile));
      out.plan.name = InsertNodeName(*stmt.insert);
      out.plan.has_stats = true;
      out.plan.stats =
          DmlStats(out.result.rows_affected, timer.ElapsedSeconds());
      if (!select_profile.name.empty()) {
        out.plan.children.push_back(std::move(select_profile));
      } else {
        obs::PlanStatsNode values;
        values.name = ValuesNodeName(*stmt.insert);
        out.plan.children.push_back(std::move(values));
      }
      return out;
    }
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      // The update/delete paths scan the table directly rather than through
      // operators; describe the scan synthetically with the row count it
      // examined (the table size before mutation).
      BORNSQL_ASSIGN_OR_RETURN(out.plan, DescribePlan(stmt));
      obs::PlanStatsNode* scan = &out.plan.children.front();
      while (!scan->children.empty()) scan = &scan->children.front();
      uint64_t examined = 0;
      const std::string& table_name = stmt.kind == sql::StatementKind::kUpdate
                                          ? stmt.update->table
                                          : stmt.del->table;
      if (auto table = catalog_->GetTable(table_name); table.ok()) {
        examined = (*table)->row_count();
      }
      BORNSQL_ASSIGN_OR_RETURN(out.result,
                               stmt.kind == sql::StatementKind::kUpdate
                                   ? RunUpdate(*stmt.update)
                                   : RunDelete(*stmt.del));
      out.plan.has_stats = true;
      out.plan.stats =
          DmlStats(out.result.rows_affected, timer.ElapsedSeconds());
      scan->has_stats = true;
      scan->stats.open_calls = 1;
      scan->stats.rows_emitted = examined;
      scan->stats.next_calls = examined;
      return out;
    }
    case sql::StatementKind::kCreateTable: {
      obs::PlanStatsNode select_profile;
      BORNSQL_ASSIGN_OR_RETURN(
          out.result, RunCreateTable(*stmt.create_table, &select_profile));
      out.plan.name = CreateTableNodeName(*stmt.create_table);
      out.plan.has_stats = true;
      out.plan.stats =
          DmlStats(out.result.rows_affected, timer.ElapsedSeconds());
      if (!select_profile.name.empty()) {
        out.plan.children.push_back(std::move(select_profile));
      }
      return out;
    }
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kSet: {
      BORNSQL_ASSIGN_OR_RETURN(out.plan, DescribePlan(stmt));
      BORNSQL_ASSIGN_OR_RETURN(out.result, DispatchStatement(stmt));
      out.plan.has_stats = true;
      out.plan.stats =
          DmlStats(out.result.rows_affected, timer.ElapsedSeconds());
      return out;
    }
    case sql::StatementKind::kExplain:
      break;
    case sql::StatementKind::kPrepare:
    case sql::StatementKind::kExecute:
    case sql::StatementKind::kDeallocate:
      return Status::InvalidArgument(
          "PREPARE/EXECUTE/DEALLOCATE require a serving session "
          "(serve::Session)");
  }
  return Status::Internal("bad statement kind in EXPLAIN ANALYZE");
}

Result<QueryResult> Database::RunExplain(const sql::Statement& stmt) {
  assert(stmt.explained != nullptr);
  if (stmt.explain_verify) return RunExplainVerify(*stmt.explained);
  if (stmt.explain_lint) return RunExplainLint(*stmt.explained);
  if (stmt.explain_logical) return RunExplainLogical(*stmt.explained);
  obs::PlanStatsNode plan;
  if (stmt.explain_analyze) {
    BORNSQL_ASSIGN_OR_RETURN(ProfiledQuery profiled,
                             ProfileStatement(*stmt.explained));
    plan = std::move(profiled.plan);
  } else {
    BORNSQL_ASSIGN_OR_RETURN(plan, DescribePlan(*stmt.explained));
  }
  QueryResult out;
  out.column_names = {"plan"};
  for (std::string& line :
       obs::RenderPlanLines(plan, /*with_stats=*/stmt.explain_analyze)) {
    out.rows.push_back({Value::Text(std::move(line))});
  }
  if (std::string note = IndexJoinNote(); !note.empty()) {
    out.rows.push_back({Value::Text(std::move(note))});
  }
  return out;
}

Result<QueryResult> Database::RunExplainLogical(const sql::Statement& stmt) {
  // Like EXPLAIN VERIFY, only statements with an embedded SELECT have a
  // logical plan.
  const sql::SelectStmt* select = nullptr;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      select = stmt.select.get();
      break;
    case sql::StatementKind::kInsert:
      select = stmt.insert->select.get();
      break;
    case sql::StatementKind::kCreateTable:
      select = stmt.create_table->as_select.get();
      break;
    default:
      break;
  }
  QueryResult out;
  out.column_names = {"plan"};
  if (select == nullptr) {
    out.rows.push_back(
        {Value::Text("statement has no logical plan (no embedded SELECT)")});
    return out;
  }
  Planner planner = MakePlanner();
  // Two independent builds: the "before" tree stays naive (CTE bodies
  // included), the "after" tree runs the full rule pipeline.
  BORNSQL_ASSIGN_OR_RETURN(
      plan::LogicalPlan before,
      planner.BuildLogical(*select, /*optimize_ctes=*/false));
  BORNSQL_ASSIGN_OR_RETURN(plan::LogicalPlan after,
                           planner.BuildLogical(*select));
  BORNSQL_RETURN_IF_ERROR(planner.OptimizeLogical(&after));
  out.rows.push_back({Value::Text("logical plan (before rules):")});
  for (std::string& line : plan::RenderLogicalLines(before)) {
    out.rows.push_back({Value::Text("  " + std::move(line))});
  }
  out.rows.push_back({Value::Text("logical plan (after rules):")});
  for (std::string& line : plan::RenderLogicalLines(after)) {
    out.rows.push_back({Value::Text("  " + std::move(line))});
  }
  if (std::string note = IndexJoinNote(); !note.empty()) {
    out.rows.push_back({Value::Text(std::move(note))});
  }
  return out;
}

Result<QueryResult> Database::RunExplainVerify(const sql::Statement& stmt) {
  // Only statements with an embedded SELECT have an operator tree; the
  // remaining kinds (INSERT VALUES, UPDATE, DELETE, DDL) execute through
  // dedicated non-operator paths with nothing for the verifier to walk.
  const sql::SelectStmt* select = nullptr;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      select = stmt.select.get();
      break;
    case sql::StatementKind::kInsert:
      select = stmt.insert->select.get();
      break;
    case sql::StatementKind::kCreateTable:
      select = stmt.create_table->as_select.get();
      break;
    default:
      break;
  }
  QueryResult out;
  out.column_names = {"verify"};
  if (select == nullptr) {
    out.rows.push_back(
        {Value::Text("ok: statement has no operator plan to verify")});
    return out;
  }
  Planner planner = MakePlanner();
  // Plan with translation validation armed and collecting (violations are
  // reported here rather than failing the statement), regardless of the
  // session's verify_rewrites setting: EXPLAIN VERIFY exists to show the
  // evidence.
  RewriteValidationLog vlog;
  planner.set_validation_log(&vlog);
  const bool saved_verify_rewrites = config_.verify_rewrites;
  config_.verify_rewrites = true;
  Result<exec::OperatorPtr> planned = planner.PlanSelect(*select);
  config_.verify_rewrites = saved_verify_rewrites;
  if (!planned.ok()) return planned.status();
  exec::OperatorPtr plan = std::move(*planned);
  size_t checks = 0;
  const std::vector<lint::Diagnostic> diags = lint::VerifyPlan(*plan, &checks);
  if (diags.empty()) {
    out.rows.push_back({Value::Text(
        StrFormat("ok: %zu invariant checks, 0 violations", checks))});
  } else {
    for (const lint::Diagnostic& d : diags) {
      out.rows.push_back({Value::Text(lint::FormatDiagnostic(d))});
    }
  }
  if (vlog.diags.empty()) {
    out.rows.push_back({Value::Text(StrFormat(
        "ok: %zu rule applications translation-validated (%zu checks), "
        "0 violations",
        vlog.applications, vlog.checks))});
  } else {
    for (const lint::Diagnostic& d : vlog.diags) {
      out.rows.push_back({Value::Text(lint::FormatDiagnostic(d))});
    }
  }
  // Parallel-safety traits of this plan's operators: the inputs a morsel
  // scheduler would consume (DESIGN.md section 15).
  std::vector<exec::OperatorTraitInfo> traits;
  exec::CollectOperatorTraits(*plan, &traits);
  size_t by_trait[4] = {0, 0, 0, 0};
  for (const exec::OperatorTraitInfo& t : traits) {
    ++by_trait[static_cast<size_t>(t.trait)];
  }
  out.rows.push_back({Value::Text(StrFormat(
      "parallel-safety traits: %zu operators (%zu source, %zu stateless, "
      "%zu pipeline_breaker, %zu serial_only)",
      traits.size(),
      by_trait[static_cast<size_t>(exec::OperatorTrait::kSource)],
      by_trait[static_cast<size_t>(exec::OperatorTrait::kStateless)],
      by_trait[static_cast<size_t>(exec::OperatorTrait::kPipelineBreaker)],
      by_trait[static_cast<size_t>(exec::OperatorTrait::kSerialOnly)]))});
  // Cumulative execution-contract verification counters for this database
  // (the same numbers born_stat_verifier exposes as a queryable view).
  out.rows.push_back({Value::Text(StrFormat(
      "chunk verifier (BSV020-025): %s; lifetime: %llu queries verified, "
      "%llu chunks, %llu rows, %llu checks, %llu violations",
      config_.verify_chunks ? "on" : "off",
      static_cast<unsigned long long>(chunk_verified_queries_),
      static_cast<unsigned long long>(chunk_verifier_totals_.chunks_checked),
      static_cast<unsigned long long>(chunk_verifier_totals_.rows_checked),
      static_cast<unsigned long long>(chunk_verifier_totals_.checks_run),
      static_cast<unsigned long long>(chunk_verifier_totals_.violations)))});
  return out;
}

Result<QueryResult> Database::RunExplainLint(const sql::Statement& stmt) {
  const std::vector<lint::Diagnostic> diags =
      lint::LintStatement(stmt, catalog_);
  QueryResult out;
  out.column_names = {"lint"};
  if (diags.empty()) {
    out.rows.push_back({Value::Text("ok: no lint findings")});
  } else {
    for (const lint::Diagnostic& d : diags) {
      out.rows.push_back({Value::Text(lint::FormatDiagnostic(d))});
    }
  }
  return out;
}

Result<QueryResult> Database::RunCreateTable(const sql::CreateTableStmt& stmt,
                                             obs::PlanStatsNode* profile) {
  if (stmt.as_select != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(
        QueryResult data, RunSelect(SelectSource(*stmt.as_select), profile));
    Schema schema;
    for (const std::string& name : data.column_names) {
      schema.Add(Column{stmt.table, name, ValueType::kNull});
    }
    if (stmt.if_not_exists && catalog_->Exists(stmt.table)) {
      QueryResult out;
      return out;
    }
    BORNSQL_ASSIGN_OR_RETURN(
        storage::Table * table,
        catalog_->CreateTable(stmt.table, std::move(schema), {}, false));
    for (Row& row : data.rows) table->AppendUnchecked(std::move(row));
    QueryResult out;
    out.rows_affected = table->row_count();
    return out;
  }

  Schema schema;
  std::vector<size_t> key_columns;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    const sql::ColumnDef& def = stmt.columns[i];
    schema.Add(Column{stmt.table, def.name, def.type});
    if (def.primary_key) key_columns.push_back(i);
  }
  for (const std::string& pk : stmt.primary_key) {
    size_t idx = schema.FindUnqualified(pk);
    if (idx == Schema::kNpos) {
      return Status::BindError("PRIMARY KEY column '" + pk +
                               "' is not a column of the table");
    }
    key_columns.push_back(idx);
  }
  BORNSQL_RETURN_IF_ERROR(catalog_
                              ->CreateTable(stmt.table, std::move(schema),
                                            std::move(key_columns),
                                            stmt.if_not_exists)
                              .status());
  return QueryResult{};
}

Result<QueryResult> Database::RunDropTable(const sql::DropTableStmt& stmt) {
  BORNSQL_RETURN_IF_ERROR(catalog_->DropTable(stmt.table, stmt.if_exists));
  return QueryResult{};
}

Result<QueryResult> Database::RunCreateIndex(const sql::CreateIndexStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  std::vector<size_t> cols;
  for (const std::string& name : stmt.columns) {
    size_t idx = table->schema().FindUnqualified(name);
    if (idx == Schema::kNpos) {
      return Status::BindError("index column '" + name +
                               "' is not a column of '" + stmt.table + "'");
    }
    cols.push_back(idx);
  }
  if (stmt.unique) {
    BORNSQL_RETURN_IF_ERROR(table->SetUniqueKey(std::move(cols)));
  } else {
    table->AddSecondaryIndex(std::move(cols));
  }
  // DDL: a new index can change join strategy choices, so cached plans
  // built against the old version must never be reused.
  catalog_->BumpVersion();
  return QueryResult{};
}

Status Database::CoerceRow(const storage::Table& table, Row* row) const {
  const Schema& schema = table.schema();
  assert(row->size() == schema.size());
  for (size_t i = 0; i < row->size(); ++i) {
    ValueType target = schema.column(i).type;
    if (target == ValueType::kNull) continue;  // dynamic column
    BORNSQL_ASSIGN_OR_RETURN((*row)[i], (*row)[i].CoerceTo(target));
  }
  return Status::OK();
}

Result<QueryResult> Database::RunInsert(const sql::InsertStmt& stmt,
                                        obs::PlanStatsNode* profile) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  const Schema& schema = table->schema();

  // Map provided column names to positions (default: table order).
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      size_t idx = schema.FindUnqualified(name);
      if (idx == Schema::kNpos) {
        return Status::BindError("column '" + name +
                                 "' is not a column of '" + stmt.table + "'");
      }
      positions.push_back(idx);
    }
  }

  // Produce the incoming rows.
  std::vector<Row> incoming;
  if (!stmt.values.empty()) {
    Schema empty;
    Row no_input;
    for (const auto& exprs : stmt.values) {
      if (exprs.size() != positions.size()) {
        return Status::BindError(
            StrFormat("INSERT expects %zu values per row, got %zu",
                      positions.size(), exprs.size()));
      }
      Row row(schema.size());
      for (size_t i = 0; i < exprs.size(); ++i) {
        BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                                 BindFolded(*exprs[i], empty));
        BORNSQL_ASSIGN_OR_RETURN(row[positions[i]],
                                 exec::Eval(*bound, no_input));
      }
      incoming.push_back(std::move(row));
    }
  } else {
    // The select's output stays chunked: each inserted row is built exactly
    // once, remapped into table column order with values moved out of the
    // buffered columns. (The chunks are fully materialized before any row
    // is inserted, so a select reading the target table sees its
    // pre-statement contents.)
    BORNSQL_ASSIGN_OR_RETURN(exec::MaterializedChunks data,
                             ExecSelectToChunks(SelectSource(*stmt.select),
                                                profile));
    if (data.row_count > 0 && data.schema.size() != positions.size()) {
      return Status::BindError(
          StrFormat("INSERT expects %zu columns, SELECT produced %zu",
                    positions.size(), data.schema.size()));
    }
    incoming.reserve(data.row_count);
    for (exec::DataChunk& chunk : data.chunks) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        Row row(schema.size());
        for (size_t c = 0; c < positions.size(); ++c) {
          row[positions[c]] = std::move(chunk.column(c)[i]);
        }
        incoming.push_back(std::move(row));
      }
      chunk.Clear();
    }
  }
  for (Row& row : incoming) {
    BORNSQL_RETURN_IF_ERROR(CoerceRow(*table, &row));
  }

  // ON CONFLICT setup.
  exec::BoundExprPtr noop;
  std::vector<std::pair<size_t, exec::BoundExprPtr>> conflict_sets;
  Schema conflict_schema;
  if (stmt.on_conflict != nullptr) {
    if (!table->has_unique_key()) {
      return Status::BindError("ON CONFLICT requires a unique key on '" +
                               stmt.table + "'");
    }
    // The target column set must match the table's unique key.
    std::vector<size_t> targets;
    for (const std::string& name : stmt.on_conflict->target_columns) {
      size_t idx = schema.FindUnqualified(name);
      if (idx == Schema::kNpos) {
        return Status::BindError("ON CONFLICT column '" + name +
                                 "' is not a column of '" + stmt.table + "'");
      }
      targets.push_back(idx);
    }
    std::vector<size_t> key = table->key_columns();
    std::sort(targets.begin(), targets.end());
    std::sort(key.begin(), key.end());
    if (targets != key) {
      return Status::BindError(
          "ON CONFLICT target does not match the table's unique key");
    }
    if (!stmt.on_conflict->do_nothing) {
      // SET expressions see the existing row under the table's name and the
      // incoming row under 'excluded'.
      conflict_schema = schema.WithQualifier(stmt.table);
      for (const Column& c : schema.columns()) {
        conflict_schema.Add(Column{"excluded", c.name, c.type});
      }
      for (const auto& [col, expr] : stmt.on_conflict->set_clauses) {
        size_t idx = schema.FindUnqualified(col);
        if (idx == Schema::kNpos) {
          return Status::BindError("SET column '" + col +
                                   "' is not a column of '" + stmt.table +
                                   "'");
        }
        BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                                 BindExpr(*expr, conflict_schema));
        conflict_sets.emplace_back(idx, std::move(bound));
      }
    }
  }

  size_t affected = 0;
  for (Row& row : incoming) {
    if (stmt.on_conflict != nullptr && table->has_unique_key()) {
      size_t existing = table->FindConflict(row);
      if (existing != storage::Table::kNpos) {
        if (stmt.on_conflict->do_nothing) continue;
        // DO UPDATE: evaluate SET expressions over (existing ++ incoming).
        const Row& old_row = table->rows()[existing];
        Row combined;
        combined.reserve(old_row.size() + row.size());
        combined.insert(combined.end(), old_row.begin(), old_row.end());
        combined.insert(combined.end(), row.begin(), row.end());
        Row updated = old_row;
        for (const auto& [idx, expr] : conflict_sets) {
          BORNSQL_ASSIGN_OR_RETURN(updated[idx], exec::Eval(*expr, combined));
        }
        BORNSQL_RETURN_IF_ERROR(CoerceRow(*table, &updated));
        BORNSQL_RETURN_IF_ERROR(table->UpdateRow(existing, std::move(updated)));
        ++affected;
        continue;
      }
    }
    BORNSQL_RETURN_IF_ERROR(table->Insert(std::move(row)));
    ++affected;
  }
  QueryResult out;
  out.rows_affected = affected;
  return out;
}

Result<QueryResult> Database::RunUpdate(const sql::UpdateStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  Schema schema = table->schema().WithQualifier(stmt.table);

  exec::BoundExprPtr where;
  if (stmt.where != nullptr) {
    BORNSQL_ASSIGN_OR_RETURN(where, BindFolded(*stmt.where, schema));
  }
  std::vector<std::pair<size_t, exec::BoundExprPtr>> sets;
  for (const auto& [col, expr] : stmt.set_clauses) {
    size_t idx = schema.FindUnqualified(col);
    if (idx == Schema::kNpos) {
      return Status::BindError("SET column '" + col +
                               "' is not a column of '" + stmt.table + "'");
    }
    BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr bound,
                             BindFolded(*expr, schema));
    sets.emplace_back(idx, std::move(bound));
  }

  // Two-phase: evaluate all updates first so row mutation cannot affect
  // later predicate evaluation.
  std::vector<std::pair<size_t, Row>> updates;
  for (size_t i = 0; i < table->rows().size(); ++i) {
    const Row& row = table->rows()[i];
    if (where != nullptr) {
      BORNSQL_ASSIGN_OR_RETURN(Value v, exec::Eval(*where, row));
      if (v.is_null() || !v.Truthy()) continue;
    }
    Row updated = row;
    for (const auto& [idx, expr] : sets) {
      BORNSQL_ASSIGN_OR_RETURN(updated[idx], exec::Eval(*expr, row));
    }
    BORNSQL_RETURN_IF_ERROR(CoerceRow(*table, &updated));
    updates.emplace_back(i, std::move(updated));
  }
  for (auto& [idx, row] : updates) {
    BORNSQL_RETURN_IF_ERROR(table->UpdateRow(idx, std::move(row)));
  }
  QueryResult out;
  out.rows_affected = updates.size();
  return out;
}

Result<QueryResult> Database::RunDelete(const sql::DeleteStmt& stmt) {
  BORNSQL_ASSIGN_OR_RETURN(storage::Table * table,
                           catalog_->GetTable(stmt.table));
  Schema schema = table->schema().WithQualifier(stmt.table);

  std::vector<bool> flags(table->rows().size(), false);
  if (stmt.where == nullptr) {
    flags.assign(table->rows().size(), true);
  } else {
    BORNSQL_ASSIGN_OR_RETURN(exec::BoundExprPtr where,
                             BindFolded(*stmt.where, schema));
    for (size_t i = 0; i < table->rows().size(); ++i) {
      BORNSQL_ASSIGN_OR_RETURN(Value v,
                               exec::Eval(*where, table->rows()[i]));
      flags[i] = !v.is_null() && v.Truthy();
    }
  }
  QueryResult out;
  out.rows_affected = table->DeleteRows(flags);
  return out;
}

Result<exec::BoundExprPtr> Database::BindFolded(const sql::Expr& expr,
                                                const Schema& schema) {
  if (!HasSubquery(expr)) return BindExpr(expr, schema);
  sql::ExprPtr folded = sql::CloneExpr(expr);
  BORNSQL_RETURN_IF_ERROR(MakePlanner().FoldSubqueries(folded.get()));
  return BindExpr(*folded, schema);
}

}  // namespace bornsql::engine
