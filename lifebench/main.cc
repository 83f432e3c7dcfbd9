// Command line of the lifecycle benchmark. run.py builds this binary and
// passes its command-line arguments through:
//
//   lifebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--git-sha <sha>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines hold the run's
// provenance ({"meta": ...}), the checks made per oracle and, in a traced
// run, the per-layer self-time table. A run whose database has the engine's
// verifiers on (a Debug build) measures nothing and exits with code 3.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "lifebench/lifebench.h"

namespace {

// The workloads and metrics are listed by `python3 lifebench/run.py --help`,
// from BENCHMARK.json.
const char kUsage[] =
    "usage: lifebench --workload <lifecycle|serve_predict> --seed <n>\n"
    "                 --seconds <s> --trace <0|1> [--trace-out <file>]\n"
    "                 [--git-sha <sha>]\n"
    "--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones\n"
    "and a self-time table, and writes a Chrome trace_event JSON to\n"
    "--trace-out. Workloads and metrics: python3 lifebench/run.py --help.\n";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "lifebench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

// Parses a whole non-negative number or fails with usage.
unsigned long long ParseCount(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0' || *text == '-') {
    UsageError(std::string("bad value for ") + flag + ": '" + text + "'");
  }
  return v;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  lifebench::Options opt;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (i + 1 >= argc) UsageError("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = ParseCount("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(ParseCount("--seconds", value));
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") UsageError("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt.trace_path = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      UsageError("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    UsageError("--workload, --seed, --seconds and --trace are required");
  }
  if (opt.seconds < 1) UsageError("--seconds must be at least 1");

  lifebench::RunResult result;
  std::string error;
  if (!lifebench::RunWorkload(opt, &result, &error)) {
    std::fprintf(stderr, "lifebench: %s\n", error.c_str());
    return result.verifiers.any() ? 3 : 1;
  }

  const lifebench::Sizes& z = opt.sizes;
  const lifebench::Verifiers& v = result.verifiers;
  std::printf(
      "{\"meta\": {\"git_sha\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"nproc\": %u, \"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"publications\": %zu, \"batches\": %zu, "
      "\"point_burst\": %zu, \"setups\": %zu, \"predict_phase_s\": %s, "
      "\"serve_threads\": %zu, "
      "\"verify_plans\": %d, \"verify_rewrites\": %d, "
      "\"verify_chunks\": %d}}\n",
      JsonString(git_sha).c_str(), JsonString(LIFEBENCH_BUILD_TYPE).c_str(),
      JsonString(LIFEBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      JsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0, z.publications,
      z.batches, z.point_burst, z.setups,
      JsonNumber(lifebench::kPredictPhaseS).c_str(), lifebench::kServeThreads,
      v.plans, v.rewrites, v.chunks);
  if (!result.layer_table.empty()) std::fputs(result.layer_table.c_str(), stdout);

  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::string checks;
  for (const auto& [name, n] : result.checks) {
    if (!checks.empty()) checks += ", ";
    checks += JsonString(name) + ": " + std::to_string(n);
  }
  std::printf("{\"checks\": {%s}}\n", checks.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
