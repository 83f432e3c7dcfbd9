// lifebench: the BornSQL lifecycle benchmark.
//
// One program runs two workloads through the public APIs
// (born::BornSqlClassifier, engine::Database, serve::Server/Session) on the
// Scopus synthesizer, checks every answer, and reports end-to-end metrics
// (untraced run) or per-layer metrics (traced run). See run.py for the
// command line the benchmark is driven with.
#ifndef LIFEBENCH_LIFEBENCH_H_
#define LIFEBENCH_LIFEBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "types/value.h"

namespace lifebench {

// The oracles every run applies; each names one correctness claim.
inline constexpr char kOracleCorpusRestored[] = "corpus_restored";
inline constexpr char kOracleBatchVsRef[] = "batch_vs_ref";
inline constexpr char kOraclePointVsBatch[] = "point_vs_batch";
inline constexpr char kOracleServeVsDriver[] = "serve_vs_driver";

// Sizes of one run. Defaults are the benchmark's; tests shrink them.
struct Sizes {
  size_t publications = 4000;
  // Partial-fit (and unlearn) batches per round; divides 8.
  size_t batches = 4;
  // Single-item driver predicts ending each round of the lifecycle workload.
  size_t point_burst = 2048;
  // Set-ups per run; setup_s is their median.
  size_t setups = 7;
};

// serve_predict follows each lifecycle round with a predict phase of this
// length, sent by this many client threads, each with its own session.
inline constexpr double kPredictPhaseS = 2.0;
inline constexpr size_t kServeThreads = 2;

// The engine's plan, rewrite and chunk verifiers as configured on the
// database a run measures. They are on in Debug builds only.
struct Verifiers {
  bool plans = false;
  bool rewrites = false;
  bool chunks = false;
  bool any() const { return plans || rewrites || chunks; }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
  // Chrome trace_event JSON of the traced run; empty writes none.
  std::string trace_path;
  // Test hook: corrupts the expected answer of the named oracle so the run
  // must count failed operations.
  std::string sabotage;
};

// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  // Read from the measured database after set-up. A run refuses to measure
  // (RunWorkload returns false) when any is on.
  Verifiers verifiers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Checks made per oracle (tests assert each oracle ran).
  std::map<std::string, uint64_t> checks;
  std::map<std::string, Metric> metrics;
  // Human-readable per-layer self-time table (traced runs only).
  std::string layer_table;
};

// Runs one workload. Returns false with `error` set when the run could not
// complete (a failed operation is not an error: it is counted).
bool RunWorkload(const Options& options, RunResult* result,
                 std::string* error);

// ---- oracles (exposed for the benchmark's tests) ----

// Counts operations and the ones whose answer was wrong or that failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> checks;

  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  // One oracle check of an operation already counted by Op(true): a wrong
  // answer turns that operation into a failed one.
  void Check(const std::string& oracle, bool ok) {
    ++checks[oracle];
    if (!ok) ++failed;
  }
  void Merge(const Tally& other);
};

// (j, k) -> w of a {model}_corpus table. k is rendered to text.
using Corpus = std::map<std::pair<std::string, std::string>, double>;
// item id -> predicted class; an item with no known features has no entry.
using Predictions = std::map<int64_t, bornsql::Value>;

// Tolerance of the unlearning oracle: |a - b| <= kCorpusTol * max(1, |a|).
// Unlearning subtracts the same P_jk contributions partial fit added, so
// the only difference is float rounding of the upsert sums.
inline constexpr double kCorpusTol = 1e-9;

// True when `actual` equals `expected` within kCorpusTol; an entry present
// on one side only must carry (near) zero mass on that side.
bool CorpusMatches(const Corpus& expected, const Corpus& actual);

// True when both sides predict the same class for the same items.
bool PredictionsMatch(const Predictions& expected, const Predictions& actual);

// The value the sabotage hook substitutes for an expected class.
bornsql::Value WrongClass(const bornsql::Value& k);

}  // namespace lifebench

#endif  // LIFEBENCH_LIFEBENCH_H_
