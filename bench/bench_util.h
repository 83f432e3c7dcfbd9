// Shared plumbing for the reproduction benches: argument parsing, table
// printing, least-squares shape checks, and the three engine
// configurations standing in for the paper's three DBMSs.
#ifndef BORNSQL_BENCH_BENCH_UTIL_H_
#define BORNSQL_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/planner.h"
#include "obs/metrics.h"
#include "obs/plan_stats.h"

namespace bornsql::bench {

struct Args {
  // Multiplies every default dataset size. 1.0 is tuned for a 1-vCPU
  // container; raise it on faster machines.
  double scale = 1.0;
  // Where to write the per-operator observability breakdown (benches that
  // support it have a default path; empty keeps the default).
  std::string obs_json;
  // Where to write a Chrome trace_event JSON of the bench's statements
  // (loadable by chrome://tracing). Empty disables trace export.
  std::string trace_json;
  // Where to write the metrics registry in Prometheus text exposition
  // format after the bench finishes. Empty disables the export.
  std::string metrics_prom;
};

// A bench-specific `--name=value` flag, parsed alongside the shared ones:
// ParseArgs stores the text after '=' in *value and lists `help` in the
// usage message.
struct ExtraFlag {
  const char* name;  // including the trailing '=', e.g. "--threads="
  const char* help;
  std::string* value;
};

inline void PrintUsage(std::FILE* out, const char* prog,
                       const std::vector<ExtraFlag>& extra) {
  std::fprintf(out,
               "usage: %s [flags]\n"
               "  --scale=<x>            multiply every default dataset size "
               "(> 0, default 1.0)\n"
               "  --obs-json=<path>      write the per-operator breakdown "
               "JSON\n"
               "  --trace-json=<path>    write a Chrome trace_event JSON of "
               "the statements\n"
               "  --metrics-prom=<path>  write the metrics registry as "
               "Prometheus text\n",
               prog);
  for (const ExtraFlag& flag : extra) {
    const std::string spelled = std::string(flag.name) + "<...>";
    std::fprintf(out, "  %-22s %s\n", spelled.c_str(), flag.help);
  }
  std::fprintf(out, "  --help                 print this message and exit\n");
}

// Prints `message` and the usage to stderr, then exits 2.
[[noreturn]] inline void UsageError(const char* prog,
                                    const std::string& message,
                                    const std::vector<ExtraFlag>& extra) {
  std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
  PrintUsage(stderr, prog, extra);
  std::exit(2);
}

// Parses the shared bench flags plus `extra`. Strict: an unknown flag or a
// --scale that is not a positive number prints usage and exits 2; --help
// prints usage and exits 0 without running anything.
inline Args ParseArgs(int argc, char** argv,
                      const std::vector<ExtraFlag>& extra = {}) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      return arg.compare(0, n, name) == 0 ? argv[i] + n : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout, prog, extra);
      std::exit(0);
    }
    if (const char* v = value_of("--scale=")) {
      char* end = nullptr;
      args.scale = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(args.scale) ||
          args.scale <= 0) {
        UsageError(prog, "bad value for --scale: '" + std::string(v) +
                             "' (expected a number > 0)", extra);
      }
    } else if (const char* v = value_of("--obs-json=")) {
      args.obs_json = v;
    } else if (const char* v = value_of("--trace-json=")) {
      args.trace_json = v;
    } else if (const char* v = value_of("--metrics-prom=")) {
      args.metrics_prom = v;
    } else {
      bool matched = false;
      for (const ExtraFlag& flag : extra) {
        if (const char* v = value_of(flag.name)) {
          *flag.value = v;
          matched = true;
          break;
        }
      }
      if (!matched) UsageError(prog, "unknown flag '" + arg + "'", extra);
    }
  }
  return args;
}

// Observability artifact for one profiled statement: the annotated plan
// tree plus a metrics-registry snapshot.
inline std::string ObsJson(const obs::PlanStatsNode& plan,
                           const std::string& metrics_json) {
  return "{\"plan\": " + obs::PlanStatsToJson(plan) +
         ", \"metrics\": " + metrics_json + "}";
}

inline bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

inline size_t Scaled(size_t base, double scale) {
  double v = static_cast<double>(base) * scale;
  return v < 1 ? 1 : static_cast<size_t>(v);
}

inline void PrintHeader(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline void ShapeCheck(bool ok, const std::string& claim) {
  std::printf("shape-check: [%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
}

// Least-squares fit y = a + b x; returns (slope, intercept, R^2).
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};

inline LinearFit FitLine(const std::vector<double>& xs,
                         const std::vector<double>& ys) {
  LinearFit out;
  const size_t n = xs.size();
  if (n < 2 || ys.size() != n) return out;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  double denom = n * sxx - sx * sx;
  if (denom == 0) return out;
  out.slope = (n * sxy - sx * sy) / denom;
  out.intercept = (sy - out.slope * sx) / n;
  double ss_res = 0, mean_y = sy / n, ss_tot = 0;
  for (size_t i = 0; i < n; ++i) {
    double pred = out.intercept + out.slope * xs[i];
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  out.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return out;
}

// The three engine configurations standing in for PostgreSQL / MySQL /
// SQLite in the runtime figures: same algorithm, different physical
// operators, hence "different constants, same slope".
struct EngineVariant {
  const char* name;
  engine::EngineConfig config;
};

inline std::vector<EngineVariant> EngineVariants() {
  engine::EngineConfig a;  // hash joins + index joins + materialized CTEs
  engine::EngineConfig b;
  b.join_strategy = engine::JoinStrategy::kSortMerge;
  b.use_index_joins = false;
  engine::EngineConfig c;
  c.materialize_ctes = false;  // recompute CTEs per reference
  return {{"engine-A(hash)", a}, {"engine-B(sort-merge)", b},
          {"engine-C(inline-cte)", c}};
}

}  // namespace bornsql::bench

#endif  // BORNSQL_BENCH_BENCH_UTIL_H_
