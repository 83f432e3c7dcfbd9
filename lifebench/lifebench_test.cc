// The benchmark's own tests: every workload at a tiny size under two seeds
// passes every oracle, and each oracle, fed a wrong expected answer, counts
// a failed operation.
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "lifebench/lifebench.h"

namespace lifebench {
namespace {

Options Tiny(const std::string& workload, uint64_t seed, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = seed;
  o.seconds = 0.2;
  o.trace = trace;
  o.sizes.publications = 240;
  o.sizes.batches = 2;
  o.sizes.point_burst = 4;
  o.sizes.setups = 2;
  return o;
}

// The oracles each workload must apply.
std::vector<std::string> OraclesOf(const std::string& workload) {
  return {kOracleCorpusRestored, kOracleBatchVsRef,
          workload == "serve_predict" ? kOracleServeVsDriver
                                      : kOraclePointVsBatch};
}

class WorkloadTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(WorkloadTest, EveryOraclePasses) {
  const auto& [workload, seed] = GetParam();
  for (bool trace : {false, true}) {
    RunResult r;
    std::string error;
    ASSERT_TRUE(RunWorkload(Tiny(workload, seed, trace), &r, &error)) << error;
    EXPECT_FALSE(r.verifiers.any());
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
    for (const std::string& oracle : OraclesOf(workload)) {
      EXPECT_GT(r.checks[oracle], 0u) << oracle;
    }
    for (const auto& [name, m] : r.metrics) {
      EXPECT_TRUE(std::isfinite(m.value)) << name;
    }
    if (!trace) {
      for (const char* name :
           {"setup_s", "fit_items_per_s", "partial_fit_items_per_s",
            "unlearn_items_per_s", "deploy_s", "batch_predict_items_per_s",
            "engine_factor_fit", "engine_factor_predict", "predict_p50_us",
            "predict_p99_us", "predict_qps", "peak_bytes"}) {
        ASSERT_EQ(r.metrics.count(name), 1u) << name;
        EXPECT_GT(r.metrics[name].value, 0.0) << name;
      }
    } else {
      EXPECT_GT(r.metrics["exec.execute_us"].value, 0.0);
      EXPECT_GT(r.metrics["sql.lex_us.fit"].value, 0.0);
      EXPECT_GT(r.metrics["exec.execute_us.predict"].value, 0.0);
      EXPECT_EQ(r.metrics["born.statements_per_op.predict"].value, 1.0);
      EXPECT_FALSE(r.layer_table.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TinyTwoSeeds, WorkloadTest,
    ::testing::Combine(::testing::Values("lifecycle", "serve_predict"),
                       ::testing::Values(uint64_t{1}, uint64_t{7})));

class SabotageTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SabotageTest, WrongExpectedAnswerCountsAFailedOperation) {
  const auto& [workload, oracle] = GetParam();
  Options o = Tiny(workload, 3, false);
  o.sabotage = oracle;
  RunResult r;
  std::string error;
  ASSERT_TRUE(RunWorkload(o, &r, &error)) << error;
  EXPECT_GT(r.failed, 0u) << oracle;
  EXPECT_LE(r.failed, r.attempted);
}

INSTANTIATE_TEST_SUITE_P(
    EachOracle, SabotageTest,
    ::testing::Values(
        std::make_tuple("lifecycle", kOracleCorpusRestored),
        std::make_tuple("lifecycle", kOracleBatchVsRef),
        std::make_tuple("lifecycle", kOraclePointVsBatch),
        std::make_tuple("serve_predict", kOracleServeVsDriver)));

TEST(OracleTest, CorpusToleratesRoundingOnly) {
  Corpus a = {{{"j1", "17"}, 0.5}, {{"j2", "18"}, 1.5}};
  Corpus b = a;
  b[{"j1", "17"}] += 1e-13;
  b[{"j3", "26"}] = 1e-15;  // unlearned entry left at (near) zero mass
  EXPECT_TRUE(CorpusMatches(a, b));
  b[{"j2", "18"}] += 1e-6;
  EXPECT_FALSE(CorpusMatches(a, b));
  b = a;
  b[{"j4", "26"}] = 0.25;
  EXPECT_FALSE(CorpusMatches(a, b));
}

TEST(OracleTest, PredictionsMustAgreeItemByItem) {
  Predictions a = {{1, bornsql::Value::Int(17)}, {2, bornsql::Value::Int(26)}};
  Predictions b = a;
  EXPECT_TRUE(PredictionsMatch(a, b));
  b[2] = WrongClass(b[2]);
  EXPECT_FALSE(PredictionsMatch(a, b));
  b = a;
  b.erase(1);
  EXPECT_FALSE(PredictionsMatch(a, b));
}

}  // namespace
}  // namespace lifebench
