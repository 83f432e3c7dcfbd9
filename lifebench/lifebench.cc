#include "lifebench/lifebench.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "born/born_ref.h"
#include "born/born_sql.h"
#include "common/rng.h"
#include "common/strings.h"
#include "data/scopus.h"
#include "engine/database.h"
#include "engine/engine_config.h"
#include "engine/planner.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/plan_stats.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace lifebench {

using bornsql::Result;
using bornsql::Status;
using bornsql::StrFormat;
using bornsql::Value;
namespace born = bornsql::born;
namespace engine = bornsql::engine;
namespace obs = bornsql::obs;
namespace serve = bornsql::serve;

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [name, n] : other.checks) checks[name] += n;
}

bool CorpusMatches(const Corpus& expected, const Corpus& actual) {
  auto near = [](double a, double b) {
    return std::fabs(a - b) <= kCorpusTol * std::max(1.0, std::fabs(a));
  };
  for (const auto& [key, w] : expected) {
    auto it = actual.find(key);
    if (!near(w, it == actual.end() ? 0.0 : it->second)) return false;
  }
  for (const auto& [key, w] : actual) {
    if (expected.count(key) == 0 && !near(0.0, w)) return false;
  }
  return true;
}

bool PredictionsMatch(const Predictions& expected, const Predictions& actual) {
  if (expected.size() != actual.size()) return false;
  for (const auto& [n, k] : expected) {
    auto it = actual.find(n);
    if (it == actual.end() || Value::Compare(k, it->second) != 0) return false;
  }
  return true;
}

Value WrongClass(const Value& k) {
  return Value::Int(k.is_int() ? k.AsInt() + 1 : -1);
}

namespace {

constexpr char kModel[] = "lb";
// Operator types reported one by one; the rest fold into "other".
const std::vector<std::string>& ReportedOperators() {
  static const std::vector<std::string> kOps = {
      "SeqScan",  "IndexJoin", "HashJoin", "NestedLoopJoin", "HashAggregate",
      "CteScan",  "UnionAll",  "Project",  "Filter",         "Window",
      "Insert",   "CreateTableAs"};
  return kOps;
}
// Statement kinds of the per-kind metrics.
const std::vector<std::string>& Kinds() {
  static const std::vector<std::string> kKinds = {
      "fit", "partial_fit", "unlearn", "deploy", "batch_predict", "predict"};
  return kKinds;
}

using Clock = std::chrono::steady_clock;

double NowS() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

std::string Bucket(const std::string& op_type) {
  const auto& ops = ReportedOperators();
  return std::find(ops.begin(), ops.end(), op_type) != ops.end() ? op_type
                                                                 : "other";
}

// ---- the workload's data: item sets and their SQL ----

// Items are publication ids 1..N. Fit takes the stationary subsample
// id % 10 <= 5; partial-fit batches split the residues id % 40 with
// id % 10 in {6, 7} into equal groups; id % 10 >= 8 is held out.
struct Items {
  std::string fit_q;
  std::vector<std::string> batch_q;
  std::string heldout_q;
  size_t fit_items = 0;
  std::vector<size_t> batch_items;
  std::vector<born::Example> fit_examples;
  std::vector<int64_t> heldout_ids;
  std::vector<born::FeatureVector> heldout_x;
};

Items MakeItems(const bornsql::data::ScopusSynthesizer& synth, size_t batches) {
  static const int kResidues[] = {6, 7, 16, 17, 26, 27, 36, 37};
  Items items;
  items.fit_q = "SELECT id AS n FROM publication WHERE id % 10 <= 5";
  items.heldout_q = "SELECT id AS n FROM publication WHERE id % 10 >= 8";
  std::vector<std::set<int>> groups(batches);
  for (size_t i = 0; i < 8; ++i) groups[i % batches].insert(kResidues[i]);
  for (const std::set<int>& g : groups) {
    std::vector<std::string> parts;
    for (int r : g) parts.push_back(std::to_string(r));
    items.batch_q.push_back(
        "SELECT id AS n FROM publication WHERE id % 40 IN (" +
        bornsql::Join(parts, ", ") + ")");
  }
  items.batch_items.assign(batches, 0);
  for (const auto& pub : synth.publications()) {
    const int64_t id = pub.id;
    if (id % 10 <= 5) {
      ++items.fit_items;
      items.fit_examples.push_back(synth.ToExample(pub));
    } else if (id % 10 >= 8) {
      items.heldout_ids.push_back(id);
      items.heldout_x.push_back(synth.ToExample(pub).x);
    } else {
      for (size_t b = 0; b < batches; ++b) {
        if (groups[b].count(static_cast<int>(id % 40)) > 0) {
          ++items.batch_items[b];
        }
      }
    }
  }
  return items;
}

born::SqlSource Source() {
  born::SqlSource source;
  source.x_parts = bornsql::data::ScopusSynthesizer::XParts();
  source.y = bornsql::data::ScopusSynthesizer::YQuery();
  return source;
}

Result<Corpus> ReadCorpus(engine::Database* db) {
  BORNSQL_ASSIGN_OR_RETURN(
      engine::QueryResult r,
      db->Execute(StrFormat("SELECT j, k, w FROM %s_corpus", kModel)));
  Corpus corpus;
  for (const bornsql::Row& row : r.rows) {
    corpus[{row[0].AsText(), row[1].ToString()}] = row[2].AsDouble();
  }
  return corpus;
}

Predictions ToPredictions(const std::vector<bornsql::Row>& rows) {
  Predictions out;
  for (const bornsql::Row& row : rows) out[row[0].AsInt()] = row[1];
  return out;
}

// ---- tracing ----

// Layer self times of one traced operation, in microseconds, keyed by
// per-layer metric name ("sql.lex_us", "exec.self_us.HashJoin", ...).
struct OpSample {
  std::string kind;
  int64_t unit = -1;  // window unit the op belongs to; -1 for set-up ops
  std::map<std::string, double> us;
  std::map<std::string, double> rows;  // exec.rows.<Op>
  double items = 0.0;
  double corpus_rows_written = 0.0;
  double fitted_items = 0.0;
  double query_peak_bytes = 0.0;
};

// Records spans in the benchmark's own code, around calls into each layer's
// public functions, and keeps every traced op's layer self times. Spans go
// into an obs::TraceRecorder so the export is Database::ExportTrace's
// Chrome trace_event format.
class Tracer {
 public:
  static constexpr size_t kTraceCapacity = 2048;

  Tracer() : recorder_(kTraceCapacity) {}

  obs::TraceRecorder& recorder() { return recorder_; }

  void Add(OpSample sample, obs::StatementTrace trace) {
    recorder_.Record(std::move(trace));
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(std::move(sample));
  }
  void AddUnitTime(bool traced, double us) {
    std::lock_guard<std::mutex> lock(mu_);
    (traced ? traced_unit_us_ : untraced_unit_us_).push_back(us);
  }
  void AddStatements(const std::string& kind, double n) {
    std::lock_guard<std::mutex> lock(mu_);
    statements_[kind].push_back(n);
  }

  // Folds the samples into per-layer metrics and the self-time table.
  void Report(const std::string& unit_name, RunResult* result) const;

 private:
  obs::TraceRecorder recorder_;
  mutable std::mutex mu_;
  std::vector<OpSample> samples_;
  std::vector<double> traced_unit_us_;
  std::vector<double> untraced_unit_us_;
  std::map<std::string, std::vector<double>> statements_;
};

// Builds one op's trace: spans are appended in call order on the
// recorder's timeline.
class SpanScope {
 public:
  SpanScope(obs::TraceRecorder* rec, obs::StatementTrace* trace,
            const char* layer, std::string name)
      : rec_(rec), trace_(trace), layer_(layer), name_(std::move(name)),
        start_(rec->NowNs()) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  // Closes the span and returns its duration in microseconds.
  double End() {
    obs::TraceSpan span;
    span.name = std::string(layer_) + "." + name_;
    span.category = layer_;
    span.start_ns = start_;
    span.dur_ns = rec_->NowNs() - start_;
    trace_->spans.push_back(span);
    return static_cast<double>(span.dur_ns) / 1e3;
  }

 private:
  obs::TraceRecorder* rec_;
  obs::StatementTrace* trace_;
  const char* layer_;
  std::string name_;
  uint64_t start_;
};

using NodeKey = std::tuple<std::string, uint64_t, uint64_t, uint64_t, uint64_t>;

// Adds the operator self times and rows of an ExecuteProfiled plan tree.
// Self time is inclusive time minus the children's. A materialized CTE's
// plan hangs under every CteScan gate that reads it but runs once, so a
// subtree seen before is skipped; the per-type totals stay exact because
// every gate is a CteScan. `planning_us` is the replayed bind + optimize +
// lower time, which a DML root's wall time (Insert, CreateTableAs) also
// covers: it is taken off the root so that layer is not counted twice.
void FoldPlan(const obs::PlanStatsNode& node, double planning_us,
              const obs::TraceRecorder& rec, obs::StatementTrace* trace,
              std::set<NodeKey>* seen, OpSample* s) {
  double child_us = 0.0;
  std::vector<const obs::PlanStatsNode*> owned;
  for (const obs::PlanStatsNode& c : node.children) {
    NodeKey key{c.name, c.stats.first_ns, c.stats.last_ns, c.stats.wall_nanos,
                c.stats.rows_emitted};
    if (!seen->insert(key).second) continue;
    owned.push_back(&c);
    child_us += static_cast<double>(c.stats.wall_nanos) / 1e3;
  }
  const std::string type = Bucket(obs::OperatorTypeOf(node.name));
  double self_us = static_cast<double>(node.stats.wall_nanos) / 1e3 - child_us;
  if (type == "Insert" || type == "CreateTableAs") {
    self_us = std::max(0.0, self_us - planning_us);
  }
  s->us["exec.self_us." + type] += self_us;
  s->rows["exec.rows." + type] += static_cast<double>(node.stats.rows_emitted);
  if (node.stats.first_ns != 0) {
    obs::TraceSpan span;
    span.name = node.name;
    span.category = "exec";
    span.start_ns = rec.RelativeNs(node.stats.first_ns);
    span.dur_ns = node.stats.last_ns - node.stats.first_ns;
    trace->spans.push_back(span);
  }
  for (const obs::PlanStatsNode* c : owned) {
    FoldPlan(*c, 0.0, rec, trace, seen, s);
  }
}

const bornsql::sql::SelectStmt* SelectOf(const bornsql::sql::Statement& st) {
  using bornsql::sql::StatementKind;
  switch (st.kind) {
    case StatementKind::kSelect:
      return st.select.get();
    case StatementKind::kInsert:
      return st.insert->select.get();
    case StatementKind::kCreateTable:
      return st.create_table->as_select.get();
    default:
      return nullptr;
  }
}

// Replays one generated statement through the layers' public entry points
// (lex, parse, BuildLogical, OptimizeLogical, LowerLogical) for timing, then
// runs it with Database::ExecuteProfiled, whose plan tree gives the
// executor's operator self times. The replayed stages stand in for the
// same stages ExecuteProfiled runs internally.
Result<engine::QueryResult> Replay(engine::Database* db, const std::string& sql,
                                   obs::TraceRecorder* rec,
                                   obs::StatementTrace* trace, OpSample* s) {
  SpanScope lex(rec, trace, "sql", "lex");
  BORNSQL_ASSIGN_OR_RETURN(std::vector<bornsql::sql::Token> tokens,
                           bornsql::sql::Lex(sql));
  s->us["sql.lex_us"] += lex.End();
  SpanScope parse(rec, trace, "sql", "parse");
  BORNSQL_ASSIGN_OR_RETURN(bornsql::sql::Statement stmt,
                           bornsql::sql::ParseStatementTokens(std::move(tokens)));
  s->us["sql.parse_us"] += parse.End();
  double planning_us = 0.0;
  if (const bornsql::sql::SelectStmt* select = SelectOf(stmt)) {
    engine::Planner planner(&db->catalog(), &db->config());
    SpanScope bind(rec, trace, "engine", "bind");
    BORNSQL_ASSIGN_OR_RETURN(bornsql::plan::LogicalPlan logical,
                             planner.BuildLogical(*select));
    const double bind_us = bind.End();
    SpanScope optimize(rec, trace, "engine", "optimize");
    BORNSQL_RETURN_IF_ERROR(planner.OptimizeLogical(&logical));
    const double optimize_us = optimize.End();
    SpanScope lower(rec, trace, "engine", "lower");
    BORNSQL_ASSIGN_OR_RETURN(bornsql::exec::OperatorPtr op,
                             planner.LowerLogical(logical));
    const double lower_us = lower.End();
    s->us["engine.bind_us"] += bind_us;
    s->us["engine.optimize_us"] += optimize_us;
    s->us["engine.lower_us"] += lower_us;
    planning_us = bind_us + optimize_us + lower_us;
  }
  SpanScope execute(rec, trace, "engine", "execute_profiled");
  BORNSQL_ASSIGN_OR_RETURN(engine::ProfiledQuery profiled,
                           db->ExecuteProfiled(sql));
  execute.End();
  std::set<NodeKey> seen;
  OpSample exec_part;
  FoldPlan(profiled.plan, planning_us, *rec, trace, &seen, &exec_part);
  for (const auto& [name, us] : exec_part.us) {
    s->us[name] += us;
    s->us["exec.execute_us"] += us;
  }
  for (const auto& [name, n] : exec_part.rows) s->rows[name] += n;
  s->query_peak_bytes = std::max(
      s->query_peak_bytes, static_cast<double>(db->last_query_peak_bytes()));
  return std::move(profiled.result);
}

// ---- driver operations, untraced (public API) or traced (replay) ----

uint64_t QueriesExecuted(engine::Database* db) {
  return db->metrics().counter(obs::kQueriesExecuted);
}

uint64_t CorpusWrites(engine::Database* db) {
  auto table = db->catalog().GetTable(std::string(kModel) + "_corpus");
  if (!table.ok()) return 0;
  const auto& u = (*table)->usage();
  return u.inserts.load() + u.updates.load();
}

// One Born operation. With a tracer, the operation runs as the
// driver's statement sequence: the statement Build*Sql generates is
// replayed layer by layer, and the driver's bookkeeping statements (drop,
// create, index) run through its public API and count as the born layer.
class Op {
 public:
  Op(engine::Database* db, Tracer* tracer, std::string kind, int64_t unit)
      : db_(db), tracer_(tracer), start_(NowS()),
        statements_before_(QueriesExecuted(db)) {
    sample_.kind = std::move(kind);
    sample_.unit = unit;
    if (tracer_ != nullptr) {
      trace_.statement = sample_.kind;
      trace_.start_ns = tracer_->recorder().NowNs();
    }
  }
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  bool traced() const { return tracer_ != nullptr; }

  // The generated SQL, timed as the born layer's sqlgen.
  template <typename F>
  std::string Generate(F&& build) {
    SpanScope span(&tracer_->recorder(), &trace_, "born", "sqlgen");
    std::string sql = build();
    sample_.us["born.sqlgen_us"] += span.End();
    return sql;
  }
  template <typename F>
  Status Bookkeeping(F&& run) {
    SpanScope span(&tracer_->recorder(), &trace_, "born", "bookkeeping");
    Status st = run();
    sample_.us["born.bookkeeping_us"] += span.End();
    return st;
  }
  Result<engine::QueryResult> Run(const std::string& sql) {
    return Replay(db_, sql, &tracer_->recorder(), &trace_, &sample_);
  }
  OpSample& sample() { return sample_; }

  // Ends the op: returns its wall time in seconds; records the statement
  // count (untraced) or the sample (traced).
  double Finish(bool ok) {
    const double wall = NowS() - start_;
    if (tracer_ == nullptr) {
      if (ok) {
        statements_ = static_cast<double>(QueriesExecuted(db_) -
                                          statements_before_);
      }
      return wall;
    }
    trace_.dur_ns = tracer_->recorder().NowNs() - trace_.start_ns;
    trace_.error = !ok;
    tracer_->Add(std::move(sample_), std::move(trace_));
    return wall;
  }
  // Statements the untraced op ran (from the queries counter); -1 if unknown.
  double statements() const { return statements_; }

 private:
  engine::Database* db_;
  Tracer* tracer_;
  double start_;
  uint64_t statements_before_;
  double statements_ = -1.0;
  OpSample sample_;
  obs::StatementTrace trace_;
};

struct OpOutcome {
  bool ok = false;
  double seconds = 0.0;
  Predictions predictions;  // predict ops only
};

void CountStatements(Tracer* stats, const std::string& kind, const Op& op) {
  if (stats != nullptr && op.statements() >= 0) {
    stats->AddStatements(kind, op.statements());
  }
}

// `stats` receives untraced statement counts (trace mode only).
OpOutcome RunFit(engine::Database* db, born::BornSqlClassifier* clf,
                 const std::string& q, double items, Tracer* tracer,
                 Tracer* stats, int64_t unit) {
  Op op(db, tracer, "fit", unit);
  Status st;
  if (!op.traced()) {
    st = clf->Fit(q);
  } else {
    // BornSqlClassifier::Fit: drop the corpus, undeploy, create the model
    // tables (here via CorpusEntries, which also counts the empty corpus),
    // upsert, undeploy.
    st = op.Bookkeeping([&] {
      BORNSQL_RETURN_IF_ERROR(
          db->Execute("DROP TABLE IF EXISTS " + clf->corpus_table()).status());
      BORNSQL_RETURN_IF_ERROR(clf->Undeploy());
      return clf->CorpusEntries().status();
    });
    if (st.ok()) {
      const std::string sql =
          op.Generate([&] { return clf->BuildFitSql(q, false); });
      const uint64_t before = CorpusWrites(db);
      st = op.Run(sql).status();
      op.sample().corpus_rows_written = CorpusWrites(db) - before;
      op.sample().fitted_items = items;
    }
    if (st.ok()) st = op.Bookkeeping([&] { return clf->Undeploy(); });
  }
  op.sample().items = items;
  OpOutcome out{st.ok(), op.Finish(st.ok()), {}};
  CountStatements(stats, "fit", op);
  return out;
}

OpOutcome RunPartialFit(engine::Database* db, born::BornSqlClassifier* clf,
                        const std::string& q, bool unlearn, double items,
                        Tracer* tracer, Tracer* stats, int64_t unit) {
  const char* kind = unlearn ? "unlearn" : "partial_fit";
  Op op(db, tracer, kind, unit);
  Status st;
  if (!op.traced()) {
    st = unlearn ? clf->Unlearn(q) : clf->PartialFit(q);
  } else {
    const std::string sql =
        op.Generate([&] { return clf->BuildFitSql(q, unlearn); });
    const uint64_t before = CorpusWrites(db);
    st = op.Run(sql).status();
    op.sample().corpus_rows_written = CorpusWrites(db) - before;
    op.sample().fitted_items = items;
    if (st.ok()) st = op.Bookkeeping([&] { return clf->Undeploy(); });
  }
  op.sample().items = items;
  OpOutcome out{st.ok(), op.Finish(st.ok()), {}};
  CountStatements(stats, kind, op);
  return out;
}

OpOutcome RunDeploy(engine::Database* db, born::BornSqlClassifier* clf,
                    Tracer* tracer, Tracer* stats, int64_t unit) {
  Op op(db, tracer, "deploy", unit);
  Status st;
  if (!op.traced()) {
    st = clf->Deploy();
  } else {
    // BornSqlClassifier::Deploy: undeploy, CREATE TABLE AS, index on j.
    // AttachDeployment then marks this classifier deployed.
    st = op.Bookkeeping([&] { return clf->Undeploy(); });
    if (st.ok()) {
      const std::string sql = op.Generate([&] { return clf->BuildDeploySql(); });
      st = op.Run(sql).status();
    }
    if (st.ok()) {
      st = op.Bookkeeping([&] {
        const std::string w = clf->weights_table();
        BORNSQL_RETURN_IF_ERROR(
            db->Execute(StrFormat("CREATE INDEX %s_j ON %s (j)", w.c_str(),
                                  w.c_str()))
                .status());
        return clf->AttachDeployment();
      });
    }
  }
  OpOutcome out{st.ok(), op.Finish(st.ok()), {}};
  CountStatements(stats, "deploy", op);
  return out;
}

OpOutcome RunPredict(engine::Database* db, born::BornSqlClassifier* clf,
                     const std::string& q, const char* kind, double items,
                     Tracer* tracer, Tracer* stats, int64_t unit) {
  Op op(db, tracer, kind, unit);
  OpOutcome out;
  if (!op.traced()) {
    auto r = clf->Predict(q);
    out.ok = r.ok();
    if (r.ok()) {
      for (const born::SqlPrediction& p : *r) {
        out.predictions[p.n.AsInt()] = p.k;
      }
    }
  } else {
    const std::string sql = op.Generate([&] { return clf->BuildPredictSql(q); });
    auto r = op.Run(sql);
    out.ok = r.ok();
    if (r.ok()) out.predictions = ToPredictions(r->rows);
  }
  op.sample().items = items;
  out.seconds = op.Finish(out.ok);
  CountStatements(stats, kind, op);
  return out;
}

std::string PointQuery(int64_t id) {
  return StrFormat("SELECT %lld AS n", static_cast<long long>(id));
}

// ---- one lifecycle round: the paper's walkthrough ----

struct RoundTimes {
  double fit_ips = 0, deploy_s = 0, batch_ips = 0;
  std::vector<double> pf_ips, ul_ips;
  double factor_fit = 0, factor_predict = 0;
  double ref_fit_us_per_item = 0, ref_predict_us_per_item = 0;
  double ops_s = 0;  // wall time of the round's Born operations
  std::vector<double> point_us;
  double point_s = 0;
  double corpus_bytes = 0, weights_bytes = 0;
};

struct Context {
  const Options* options;
  const Items* items;
  engine::Database* db;
  std::unique_ptr<born::BornSqlClassifier> clf;
  std::vector<int64_t> point_order;  // seeded order of held-out ids
  size_t next_point = 0;
  Predictions batch;                 // the driver's held-out predictions
  Tally tally;
};

double TableBytes(engine::Database* db, const std::string& name) {
  auto table = db->catalog().GetTable(name);
  return table.ok() ? static_cast<double>((*table)->approx_bytes()) : 0.0;
}

// Times born_ref on the same items: fit (median of five) and deployed
// predict of the held-out items.
struct RefRun {
  double fit_s = 0, predict_s = 0;
  Predictions predictions;
  bool ok = false;
};

RefRun RunReference(const Items& items) {
  RefRun out;
  born::BornClassifierRef ref;
  std::vector<double> fits;
  for (int i = 0; i < 5; ++i) {
    const double t0 = NowS();
    if (!ref.Fit(items.fit_examples).ok()) return out;
    fits.push_back(NowS() - t0);
  }
  out.fit_s = Median(fits);
  if (!ref.Deploy().ok()) return out;
  const double t0 = NowS();
  for (size_t i = 0; i < items.heldout_x.size(); ++i) {
    auto k = ref.Predict(items.heldout_x[i]);
    if (k.ok()) {
      out.predictions[items.heldout_ids[i]] = *k;
    } else if (k.status().code() != bornsql::StatusCode::kNotFound) {
      return out;
    }
  }
  out.predict_s = NowS() - t0;
  out.ok = true;
  return out;
}

// Whether a single-item answer equals the driver's held-out prediction for
// that item (the batch prediction of the current round).
bool AnswerMatches(const Context& ctx, int64_t id, const Predictions& got,
                   const char* oracle) {
  Predictions expected;
  if (auto it = ctx.batch.find(id); it != ctx.batch.end()) {
    expected[id] = ctx.options->sabotage == oracle ? WrongClass(it->second)
                                                    : it->second;
  }
  return PredictionsMatch(expected, got);
}

int64_t NextPointId(Context* ctx) {
  return ctx->point_order[ctx->next_point++ % ctx->point_order.size()];
}

// One lifecycle round; `burst` single-item predicts end it.
Status RunRound(Context* ctx, Tracer* tracer, Tracer* stats, int64_t unit,
                size_t burst, RoundTimes* t) {
  const Items& items = *ctx->items;
  const Options& opt = *ctx->options;
  engine::Database* db = ctx->db;
  ctx->clf = std::make_unique<born::BornSqlClassifier>(db, kModel, Source());
  born::BornSqlClassifier* clf = ctx->clf.get();
  Tally& tally = ctx->tally;

  OpOutcome fit = RunFit(db, clf, items.fit_q, items.fit_items, tracer, stats,
                         unit);
  tally.Op(fit.ok);
  if (!fit.ok) return Status::Internal("fit failed");
  t->fit_ips = items.fit_items / fit.seconds;
  t->ops_s += fit.seconds;
  BORNSQL_ASSIGN_OR_RETURN(Corpus after_fit, ReadCorpus(db));

  for (int pass = 0; pass < 2; ++pass) {
    const bool unlearn = pass == 1;
    for (size_t b = 0; b < items.batch_q.size(); ++b) {
      OpOutcome o = RunPartialFit(db, clf, items.batch_q[b], unlearn,
                                  items.batch_items[b], tracer, stats, unit);
      tally.Op(o.ok);
      if (!o.ok) return Status::Internal("partial fit / unlearn failed");
      (unlearn ? t->ul_ips : t->pf_ips)
          .push_back(items.batch_items[b] / o.seconds);
      t->ops_s += o.seconds;
    }
  }
  BORNSQL_ASSIGN_OR_RETURN(Corpus after_unlearn, ReadCorpus(db));
  if (opt.sabotage == kOracleCorpusRestored && !after_fit.empty()) {
    after_fit.begin()->second += 1.0;
  }
  tally.Check(kOracleCorpusRestored, CorpusMatches(after_fit, after_unlearn));
  t->corpus_bytes = TableBytes(db, clf->corpus_table());

  OpOutcome deploy = RunDeploy(db, clf, tracer, stats, unit);
  tally.Op(deploy.ok);
  if (!deploy.ok) return Status::Internal("deploy failed");
  t->deploy_s = deploy.seconds;
  t->ops_s += deploy.seconds;
  t->weights_bytes = TableBytes(db, clf->weights_table());

  OpOutcome batch = RunPredict(db, clf, items.heldout_q, "batch_predict",
                               items.heldout_ids.size(), tracer, stats, unit);
  tally.Op(batch.ok);
  if (!batch.ok) return Status::Internal("batch predict failed");
  t->batch_ips = items.heldout_ids.size() / batch.seconds;
  t->ops_s += batch.seconds;
  ctx->batch = batch.predictions;

  RefRun ref = RunReference(items);
  if (!ref.ok) return Status::Internal("born_ref failed");
  t->factor_fit = fit.seconds / ref.fit_s;
  t->factor_predict = batch.seconds / ref.predict_s;
  t->ref_fit_us_per_item = ref.fit_s * 1e6 / items.fit_items;
  t->ref_predict_us_per_item = ref.predict_s * 1e6 / items.heldout_ids.size();
  if (opt.sabotage == kOracleBatchVsRef && !ref.predictions.empty()) {
    auto& k = ref.predictions.begin()->second;
    k = WrongClass(k);
  }
  tally.Check(kOracleBatchVsRef,
              PredictionsMatch(ref.predictions, batch.predictions));

  // The walkthrough's last step: single-item predicts on the deployed model.
  for (size_t i = 0; i < burst; ++i) {
    const int64_t id = NextPointId(ctx);
    OpOutcome p = RunPredict(db, clf, PointQuery(id), "predict", 1, tracer,
                             stats, unit);
    tally.Op(p.ok);
    if (!p.ok) continue;
    tally.Check(kOraclePointVsBatch,
                AnswerMatches(*ctx, id, p.predictions, kOraclePointVsBatch));
    t->point_us.push_back(p.seconds * 1e6);
    t->point_s += p.seconds;
  }
  t->ops_s += t->point_s;
  return Status::OK();
}

// ---- metrics ----

void Put(RunResult* r, const std::string& name, double value,
         const char* unit) {
  r->metrics[name] = Metric{value, unit};
}

struct LifecycleSeries {
  std::vector<double> fit_ips, pf_ips, ul_ips, deploy_s, batch_ips,
      factor_fit, factor_predict;
  void Add(const RoundTimes& t) {
    fit_ips.push_back(t.fit_ips);
    pf_ips.insert(pf_ips.end(), t.pf_ips.begin(), t.pf_ips.end());
    ul_ips.insert(ul_ips.end(), t.ul_ips.begin(), t.ul_ips.end());
    deploy_s.push_back(t.deploy_s);
    batch_ips.push_back(t.batch_ips);
    factor_fit.push_back(t.factor_fit);
    factor_predict.push_back(t.factor_predict);
  }
  void Put(RunResult* r) const {
    lifebench::Put(r, "fit_items_per_s", Median(fit_ips), "1/s");
    lifebench::Put(r, "partial_fit_items_per_s", Median(pf_ips), "1/s");
    lifebench::Put(r, "unlearn_items_per_s", Median(ul_ips), "1/s");
    lifebench::Put(r, "deploy_s", Median(deploy_s), "s");
    lifebench::Put(r, "batch_predict_items_per_s", Median(batch_ips), "1/s");
    lifebench::Put(r, "engine_factor_fit", Median(factor_fit), "ratio");
    lifebench::Put(r, "engine_factor_predict", Median(factor_predict),
                   "ratio");
  }
};

// Single-item predict latencies in groups of at least kMinGroupCalls
// consecutive calls (so a group's p99 has ten calls beyond it). Each
// metric is the median over groups: a slow stretch of the machine moves
// the groups it covers, not the median, unless it covers half the run.
class PredictSeries {
 public:
  static constexpr size_t kMinGroupCalls = 1000;

  void Add(const std::vector<double>& latencies_us, double busy_s) {
    pending_us_.insert(pending_us_.end(), latencies_us.begin(),
                       latencies_us.end());
    pending_s_ += busy_s;
    if (pending_us_.size() >= kMinGroupCalls) Flush();
  }

  // A trailing partial group counts only when it is the only one.
  void Put(RunResult* r) {
    if (p50_.empty()) Flush();
    lifebench::Put(r, "predict_p50_us", Median(p50_), "us");
    lifebench::Put(r, "predict_p99_us", Median(p99_), "us");
    lifebench::Put(r, "predict_qps", Median(qps_), "1/s");
  }

 private:
  void Flush() {
    if (pending_us_.empty() || pending_s_ <= 0) return;
    p50_.push_back(Percentile(pending_us_, 0.50));
    p99_.push_back(Percentile(pending_us_, 0.99));
    qps_.push_back(static_cast<double>(pending_us_.size()) / pending_s_);
    pending_us_.clear();
    pending_s_ = 0;
  }

  std::vector<double> p50_, p99_, qps_;
  std::vector<double> pending_us_;
  double pending_s_ = 0;
};

double At(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

void Tracer::Report(const std::string& unit_name, RunResult* result) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto put = [&](const std::string& name, double v, const char* unit) {
    Put(result, name, v, unit);
  };
  // Per statement kind: each stage's median over the traced ops of that
  // kind (so a single predict call's breakdown shows inside a lifecycle
  // round too).
  static const char* const kStages[] = {
      "born.sqlgen_us", "sql.lex_us",         "sql.parse_us",
      "engine.bind_us", "engine.optimize_us", "engine.lower_us",
      "exec.execute_us"};
  for (const std::string& kind : Kinds()) {
    for (const char* stage : kStages) {
      std::vector<double> v;
      for (const OpSample& s : samples_) {
        if (s.kind == kind) v.push_back(At(s.us, stage));
      }
      put(std::string(stage) + "." + kind, Median(v), "us");
    }
    auto it = statements_.find(kind);
    put("born.statements_per_op." + kind,
        it == statements_.end() ? 0.0 : Median(it->second), "count");
  }

  // Per window unit (a lifecycle round, or one predict call): the unit's
  // ops summed, then medians over units.
  std::map<int64_t, OpSample> units;
  for (const OpSample& s : samples_) {
    if (s.unit < 0) continue;
    OpSample& u = units[s.unit];
    for (const auto& [k, v] : s.us) u.us[k] += v;
    for (const auto& [k, v] : s.rows) u.rows[k] += v;
    u.items += s.items;
    u.query_peak_bytes = std::max(u.query_peak_bytes, s.query_peak_bytes);
  }
  auto median_of = [&](auto&& get) {
    std::vector<double> v;
    for (const auto& [id, u] : units) v.push_back(get(u));
    return Median(v);
  };
  auto us_of = [&](const std::string& name) {
    return median_of([&](const OpSample& u) { return At(u.us, name); });
  };
  // The layers whose self times add up to a unit, in accounting order.
  // serve.overhead_us is zero outside serve_predict.
  static const char* const kLayers[] = {
      "born.sqlgen_us",  "born.bookkeeping_us", "sql.lex_us",
      "sql.parse_us",    "engine.bind_us",      "engine.optimize_us",
      "engine.lower_us", "exec.execute_us",     "serve.overhead_us"};
  std::vector<std::pair<std::string, double>> rows;
  double accounted = 0.0;
  for (const char* name : kLayers) {
    const double v = us_of(name);
    put(name, v, "us");
    rows.emplace_back(name, v);
    accounted += v;
  }
  put("serve.execute_us", us_of("serve.execute_us"), "us");
  std::vector<std::string> ops = ReportedOperators();
  ops.push_back("other");
  for (const std::string& op : ops) {
    put("exec.self_us." + op, us_of("exec.self_us." + op), "us");
    put("exec.rows." + op, median_of([&](const OpSample& u) {
          return At(u.rows, "exec.rows." + op);
        }),
        "count");
  }
  put("storage.rows_scanned_per_item", median_of([](const OpSample& u) {
        return u.items > 0 ? (At(u.rows, "exec.rows.SeqScan") +
                              At(u.rows, "exec.rows.IndexJoin")) /
                                 u.items
                           : 0.0;
      }),
      "count");
  put("mem.query_peak_bytes",
      median_of([](const OpSample& u) { return u.query_peak_bytes; }),
      "bytes");

  double written = 0.0, fitted = 0.0;
  for (const OpSample& s : samples_) {
    written += s.corpus_rows_written;
    fitted += s.fitted_items;
  }
  put("storage.rows_written_per_item", fitted > 0 ? written / fitted : 0.0,
      "count");

  const double untraced = Median(untraced_unit_us_);
  const double traced = Median(traced_unit_us_);
  put("trace.unit_us", untraced, "us");
  put("trace.residual_us", untraced - accounted, "us");
  put("trace.overhead_us", traced - untraced, "us");

  std::string table = StrFormat(
      "layer self time per %s (median us over %zu traced units; untraced "
      "unit %.1f us)\n",
      unit_name.c_str(), units.size(), untraced);
  for (const auto& [name, v] : rows) {
    table += StrFormat("  %-24s %12.1f  %5.1f%%\n", name.c_str(), v,
                       untraced > 0 ? 100.0 * v / untraced : 0.0);
  }
  table += StrFormat("  %-24s %12.1f  %5.1f%%\n", "residual",
                     untraced - accounted,
                     untraced > 0 ? 100.0 * (untraced - accounted) / untraced
                                  : 0.0);
  table += StrFormat("  %-24s %12.1f  (traced unit %.1f us)\n",
                     "tracing overhead", traced - untraced, traced);
  result->layer_table = table;
}

std::vector<int64_t> SeededOrder(const std::vector<int64_t>& ids,
                                 uint64_t seed) {
  std::vector<int64_t> order = ids;
  bornsql::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

// ---- workloads ----

// Pins the calling thread to the index-th CPU the process may run on
// (modulo their number). On a virtual machine whose CPUs are slowed by
// other tenants at different times, where the scheduler happened to place a
// thread changed a run's figures, so the benchmark moves its threads over
// the CPUs in turn: each set-up and each lifecycle round runs on the next
// CPU, and serve_predict's client threads, always on distinct CPUs, shift
// by one CPU per phase. Best effort: a thread that cannot be pinned runs
// unpinned and says so.
void PinToCpu(size_t index) {
  // Read once, before the first pin: a pinned thread's own mask (and that
  // of the threads it starts) holds one CPU only.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  if (!cpus.empty()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[index % cpus.size()], &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) return;
  }
  std::fprintf(stderr, "lifebench: could not pin a thread\n");
}

// serve_predict's clients: one session per thread on the shared server,
// each sending the driver's single-item predict SQL through
// Session::Execute and waiting for the reply before the next (closed loop).
class ServeClients {
 public:
  ServeClients(serve::Server* server, Context* ctx, Tracer* trace_on,
               size_t threads)
      : server_(server), ctx_(ctx), trace_on_(trace_on) {
    for (size_t i = 0; i < threads; ++i) clients_.emplace_back(server->Connect());
  }

  // One predict phase on every client thread until `until`. The phase
  // starts with one untraced call on the first session, which counts the
  // statements a call runs and refills the plan cache after the round's DDL.
  Status Phase(double until, std::vector<double>* latencies_us) {
    const born::BornSqlClassifier& clf = *ctx_->clf;
    const uint64_t before = server_->metrics().counter(obs::kQueriesExecuted);
    const int64_t warm_id = NextPointId(ctx_);
    auto warm = clients_[0].session->Execute(
        clf.BuildPredictSql(PointQuery(warm_id)));
    ctx_->tally.Op(warm.ok());
    if (!warm.ok()) return warm.status();
    ctx_->tally.Check(kOracleServeVsDriver,
                      AnswerMatches(*ctx_, warm_id, ToPredictions(warm->rows),
                                    kOracleServeVsDriver));
    if (trace_on_ != nullptr) {
      trace_on_->AddStatements(
          "predict",
          static_cast<double>(server_->metrics().counter(obs::kQueriesExecuted) -
                              before));
    }
    {
      std::vector<std::thread> threads;
      threads.reserve(clients_.size());
      ++phases_;
      for (Client& c : clients_) {
        const size_t cpu = phases_ + threads.size();
        threads.emplace_back([this, &c, until, cpu] {
          PinToCpu(cpu);
          Run(&c, until);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    for (Client& c : clients_) {
      if (!c.error.ok()) return c.error;
      ctx_->tally.Merge(c.tally);
      c.tally = Tally{};
      latencies_us->insert(latencies_us->end(), c.latencies_us.begin(),
                           c.latencies_us.end());
      c.latencies_us.clear();
    }
    return Status::OK();
  }

  // The configuration the client sessions run with.
  const engine::EngineConfig& config() const {
    return clients_[0].session->database().config();
  }

  // Plan-cache hits over lookups, over every call made so far.
  double HitRate() const {
    uint64_t hits = 0, lookups = 0;
    for (const Client& c : clients_) {
      hits += c.session->cache_hits();
      lookups += c.session->cache_hits() + c.session->cache_misses();
    }
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }

 private:
  struct Client {
    explicit Client(std::unique_ptr<serve::Session> s) : session(std::move(s)) {}
    std::unique_ptr<serve::Session> session;
    Tally tally;
    std::vector<double> latencies_us;
    Status error;
  };

  int64_t NextId() {
    const std::vector<int64_t>& order = ctx_->point_order;
    return order[cursor_.fetch_add(1) % order.size()];
  }

  void Run(Client* me, double until) {
    const born::BornSqlClassifier& clf = *ctx_->clf;
    do {
      const int64_t unit = next_unit_.fetch_add(1);
      const bool traced = trace_on_ != nullptr && unit % 2 == 1;
      const int64_t id = NextId();
      OpSample sample;
      obs::StatementTrace trace;
      const double t0 = NowS();
      std::string sql;
      Result<engine::QueryResult> r = [&]() -> Result<engine::QueryResult> {
        if (!traced) {
          sql = clf.BuildPredictSql(PointQuery(id));
          return me->session->Execute(sql);
        }
        obs::TraceRecorder& rec = trace_on_->recorder();
        trace.statement = "predict";
        trace.start_ns = rec.NowNs();
        SpanScope gen(&rec, &trace, "born", "sqlgen");
        sql = clf.BuildPredictSql(PointQuery(id));
        sample.us["born.sqlgen_us"] = gen.End();
        SpanScope exec(&rec, &trace, "serve", "execute");
        Result<engine::QueryResult> out = me->session->Execute(sql);
        sample.us["serve.execute_us"] = exec.End();
        return out;
      }();
      const double seconds = NowS() - t0;
      me->tally.Op(r.ok());
      if (r.ok()) {
        me->tally.Check(kOracleServeVsDriver,
                        AnswerMatches(*ctx_, id, ToPredictions(r->rows),
                                      kOracleServeVsDriver));
        me->latencies_us.push_back(seconds * 1e6);
      }
      if (trace_on_ == nullptr) continue;
      trace_on_->AddUnitTime(traced, seconds * 1e6);
      if (traced) {
        Status st = ReplayHitPath(&me->session->database(), sql, unit,
                                  &sample, &trace);
        if (!st.ok()) {
          me->error = st;
          return;
        }
      }
    } while (NowS() < until);
  }

  // After a traced call, outside its timing: the stages the hit path runs,
  // replayed one by one on the client's own session database (a session is
  // single-threaded). Session::Execute lexes and parses every statement; a
  // cache hit skips bind and optimize but still lowers; ExecuteProfiled
  // gives the executor's self time. What is left of serve.execute_us is the
  // serving layer's own time (cache key, lookup, plan clone, locks and
  // registries).
  Status ReplayHitPath(engine::Database* db, const std::string& sql,
                       int64_t unit, OpSample* sample,
                       obs::StatementTrace* trace) {
    obs::TraceRecorder& rec = trace_on_->recorder();
    OpSample replay;
    BORNSQL_RETURN_IF_ERROR(Replay(db, sql, &rec, trace, &replay).status());
    double accounted = 0.0;
    for (const char* k :
         {"sql.lex_us", "sql.parse_us", "engine.lower_us", "exec.execute_us"}) {
      sample->us[k] = replay.us[k];
      accounted += replay.us[k];
    }
    for (const auto& [k, v] : replay.us) {
      if (k.rfind("exec.self_us.", 0) == 0) sample->us[k] = v;
    }
    sample->us["serve.overhead_us"] = sample->us["serve.execute_us"] - accounted;
    sample->rows = replay.rows;
    sample->query_peak_bytes = replay.query_peak_bytes;
    sample->kind = "predict";
    sample->unit = unit;
    sample->items = 1;
    trace->dur_ns = rec.NowNs() - trace->start_ns;
    trace_on_->Add(std::move(*sample), std::move(*trace));
    return Status::OK();
  }

  serve::Server* server_;
  Context* ctx_;
  Tracer* trace_on_;
  std::vector<Client> clients_;
  std::atomic<int64_t> next_unit_{0};
  std::atomic<size_t> cursor_{0};
  size_t phases_ = 0;
};

// Everything one set-up builds; the last set-up's state is measured.
struct State {
  std::unique_ptr<bornsql::data::ScopusSynthesizer> synth;
  std::unique_ptr<Items> items;
  std::unique_ptr<engine::Database> db;    // lifecycle
  std::unique_ptr<serve::Server> server;   // serve_predict
  std::unique_ptr<serve::Session> loader;  // serve_predict's writer session
  Context ctx;
};

// Synthesizes the Scopus stand-in and loads it.
bool SetUp(const Options& opt, State* st, std::string* error) {
  bornsql::data::ScopusOptions so;
  so.num_publications = opt.sizes.publications;
  so.seed = opt.seed;
  st->synth = std::make_unique<bornsql::data::ScopusSynthesizer>(so);
  engine::Database* db = nullptr;
  if (opt.workload == "serve_predict") {
    st->server = std::make_unique<serve::Server>();
    st->loader = st->server->Connect();
    db = &st->loader->database();
  } else {
    st->db = std::make_unique<engine::Database>();
    db = st->db.get();
  }
  Status load = st->synth->Load(db);
  if (!load.ok()) {
    *error = "load failed: " + load.ToString();
    return false;
  }
  st->items =
      std::make_unique<Items>(MakeItems(*st->synth, opt.sizes.batches));
  st->ctx.options = &opt;
  st->ctx.items = st->items.get();
  st->ctx.db = db;
  st->ctx.point_order = SeededOrder(st->items->heldout_ids, opt.seed);
  return true;
}

}  // namespace

bool RunWorkload(const Options& opt, RunResult* result, std::string* error) {
  if (opt.workload != "lifecycle" && opt.workload != "serve_predict") {
    *error = "unknown workload '" + opt.workload + "'";
    return false;
  }
  if (opt.sizes.batches == 0 || 8 % opt.sizes.batches != 0) {
    *error = "batches must divide 8";
    return false;
  }
  Tracer tracer;
  Tracer* trace_on = opt.trace ? &tracer : nullptr;

  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  for (size_t i = 0; i < std::max<size_t>(opt.sizes.setups, 1); ++i) {
    state.reset();
    PinToCpu(i);
    const double t0 = NowS();
    auto st = std::make_unique<State>();
    if (!SetUp(opt, st.get(), error)) return false;
    setup_s.push_back(NowS() - t0);
    state = std::move(st);
  }
  Context& ctx = state->ctx;
  std::unique_ptr<ServeClients> clients;
  if (opt.workload == "serve_predict") {
    clients = std::make_unique<ServeClients>(state->server.get(), &ctx,
                                             trace_on, kServeThreads);
  }

  // The verifiers in effect on the database the run measures (for
  // serve_predict, a client session's). Verifier-on numbers are not what
  // users run, so none are produced.
  const engine::EngineConfig& config =
      clients != nullptr ? clients->config() : ctx.db->config();
  result->verifiers = {config.verify_plans, config.verify_rewrites,
                       config.verify_chunks};
  if (result->verifiers.any()) {
    *error = StrFormat(
        "refusing to measure: verify_plans=%d verify_rewrites=%d "
        "verify_chunks=%d are on (a Debug build); build RelWithDebInfo or "
        "Release",
        config.verify_plans, config.verify_rewrites, config.verify_chunks);
    return false;
  }

  // The window: lifecycle rounds. In lifecycle each round ends with a burst
  // of single-item driver predicts and is the window unit; in
  // serve_predict each round is followed by a predict phase of session
  // calls, and a call is the window unit. Both workloads thus report every
  // end-to-end metric, and a predict phase never overlaps a write.
  const bool lifecycle_only = opt.workload == "lifecycle";
  obs::MemoryTracker::Process().ResetPeak();
  LifecycleSeries lifecycle;
  std::vector<RoundTimes> rounds;
  PredictSeries predicts;
  const double deadline = NowS() + opt.seconds;
  // A traced run has at least one traced and one untraced round.
  const int64_t min_rounds = opt.trace ? 2 : 1;
  for (int64_t r = 0; r < min_rounds || NowS() < deadline; ++r) {
    const bool traced = opt.trace && r % 2 == 1;
    PinToCpu(static_cast<size_t>(r));
    RoundTimes t;
    Status round = RunRound(&ctx, traced ? trace_on : nullptr,
                            traced ? nullptr : trace_on,
                            lifecycle_only ? r : -1,
                            lifecycle_only ? opt.sizes.point_burst : 0, &t);
    if (!round.ok()) {
      *error = "lifecycle round failed: " + round.ToString();
      return false;
    }
    lifecycle.Add(t);
    rounds.push_back(t);
    if (lifecycle_only) {
      if (opt.trace) tracer.AddUnitTime(traced, t.ops_s * 1e6);
      predicts.Add(t.point_us, t.point_s);
      continue;
    }
    const double phase_start = NowS();
    std::vector<double> latencies_us;
    if (Status st = clients->Phase(phase_start + kPredictPhaseS, &latencies_us);
        !st.ok()) {
      *error = "serve phase failed: " + st.ToString();
      return false;
    }
    predicts.Add(latencies_us, NowS() - phase_start);
  }

  result->attempted = ctx.tally.attempted;
  result->failed = ctx.tally.failed;
  result->checks = ctx.tally.checks;
  if (!opt.trace) {
    Put(result, "setup_s", Median(setup_s), "s");
    lifecycle.Put(result);
    predicts.Put(result);
    Put(result, "peak_bytes",
        static_cast<double>(obs::MemoryTracker::Process().peak()), "bytes");
    return true;
  }

  tracer.Report(lifecycle_only ? "lifecycle round" : "predict call", result);
  Put(result, "serve.plan_cache_hit_rate",
      clients != nullptr ? clients->HitRate() : 0.0, "ratio");
  std::vector<double> ref_fit, ref_predict, corpus_bytes, weights_bytes;
  for (const RoundTimes& t : rounds) {
    ref_fit.push_back(t.ref_fit_us_per_item);
    ref_predict.push_back(t.ref_predict_us_per_item);
    corpus_bytes.push_back(t.corpus_bytes);
    weights_bytes.push_back(t.weights_bytes);
  }
  Put(result, "born_ref.fit_us_per_item", Median(ref_fit), "us");
  Put(result, "born_ref.predict_us_per_item", Median(ref_predict), "us");
  Put(result, "storage.corpus_bytes", Median(corpus_bytes), "bytes");
  Put(result, "storage.weights_bytes", Median(weights_bytes), "bytes");
  if (!opt.trace_path.empty()) {
    std::FILE* f = std::fopen(opt.trace_path.c_str(), "w");
    if (f == nullptr) {
      *error = "cannot write " + opt.trace_path;
      return false;
    }
    const std::string json = obs::ChromeTraceJson(tracer.recorder().Snapshot());
    const bool written = std::fwrite(json.data(), 1, json.size(), f) ==
                         json.size();
    if (std::fclose(f) != 0 || !written) {
      *error = "cannot write " + opt.trace_path;
      return false;
    }
  }
  return true;
}

}  // namespace lifebench
