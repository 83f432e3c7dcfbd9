// bench_serving — concurrent predict traffic through the serving layer.
//
// N sessions on N threads replay BornSQL's deploy-phase predict query as a
// prepared statement (PREPARE once, EXECUTE per document), the workload
// the keyed plan cache exists for. For each thread count the bench reports
// QPS and per-EXECUTE p50/p99 latency, the plan-cache hit rate, and a
// result-equality check of cached vs. uncached execution, then writes the
// whole sweep to BENCH_serving.json.
//
//   build/bench/bench_serving [--scale=S] [--threads=1,2,4]
//                             [--json=BENCH_serving.json]
//                             [--metrics-prom=FILE]  # Prometheus text
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "common/timer.h"
#include "obs/memory.h"
#include "serve/server.h"
#include "serve/session.h"

namespace {

using bornsql::StrFormat;
using bornsql::WallTimer;
using bornsql::serve::Server;
using bornsql::serve::Session;
using bornsql::bench::Scaled;
using bornsql::bench::ShapeCheck;

constexpr char kPredictSql[] =
    "SELECT label, score FROM scores WHERE docid = $1";

// A deploy-phase scores table: one row per (document, class) with the
// class's aggregated Born score, the shape Fig. 4's predict step reads.
std::string FixtureScript(size_t docs) {
  std::string script =
      "CREATE TABLE scores (docid INTEGER, label TEXT, score REAL);";
  const char* labels[] = {"spam", "ham"};
  for (size_t d = 0; d < docs; ++d) {
    for (size_t c = 0; c < 2; ++c) {
      script += StrFormat(
          "INSERT INTO scores VALUES (%zu, '%s', %.6f);", d, labels[c],
          0.001 * static_cast<double>((d * 37 + c * 11) % 997));
    }
  }
  return script;
}

double PercentileUs(std::vector<double>* sorted_us, double p) {
  if (sorted_us->empty()) return 0.0;
  std::sort(sorted_us->begin(), sorted_us->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_us->size() - 1) + 0.5);
  return (*sorted_us)[std::min(idx, sorted_us->size() - 1)];
}

struct SweepPoint {
  int threads = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t session_peak_bytes = 0;  // max per-session tracker high water
  uint64_t process_peak_bytes = 0;  // process-root high water (cumulative)
};

// `prom_out`, if non-null, receives the server's Prometheus text before the
// server is torn down (the registry dies with it).
SweepPoint RunSweep(int threads, size_t docs, size_t ops_per_thread,
                    std::string* prom_out) {
  Server server;
  if (auto st = server.Bootstrap(FixtureScript(docs)); !st.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_session_peak{0};
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  WallTimer wall;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      auto session = server.Connect();
      if (!session->Execute(std::string("PREPARE predict AS ") + kPredictSql)
               .ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<double>& mine = latencies[static_cast<size_t>(t)];
      mine.reserve(ops_per_thread);
      for (size_t i = 0; i < ops_per_thread; ++i) {
        const size_t docid = (i * 911 + static_cast<size_t>(t)) % docs;
        WallTimer op;
        auto result =
            session->Execute(StrFormat("EXECUTE predict(%zu)", docid));
        mine.push_back(op.ElapsedSeconds() * 1e6);
        if (!result.ok() || result->rows.size() != 2) failures.fetch_add(1);
      }
      const uint64_t peak = session->memory().peak();
      uint64_t prev = max_session_peak.load(std::memory_order_relaxed);
      while (peak > prev && !max_session_peak.compare_exchange_weak(
                                prev, peak, std::memory_order_relaxed)) {
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed = wall.ElapsedSeconds();

  SweepPoint point;
  point.threads = threads;
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  point.qps = elapsed > 0
                  ? static_cast<double>(all.size()) / elapsed
                  : 0.0;
  point.p50_us = PercentileUs(&all, 0.50);
  point.p99_us = PercentileUs(&all, 0.99);
  point.hits = server.plan_cache().hits();
  point.misses = server.plan_cache().misses();
  const uint64_t lookups = point.hits + point.misses;
  point.hit_rate = lookups == 0
                       ? 0.0
                       : static_cast<double>(point.hits) /
                             static_cast<double>(lookups);
  point.session_peak_bytes = max_session_peak.load();
  point.process_peak_bytes = bornsql::obs::MemoryTracker::Process().peak();
  if (prom_out != nullptr) *prom_out = server.metrics().ToPrometheus();
  if (failures.load() != 0) {
    std::fprintf(stderr, "%d statements failed\n", failures.load());
    std::exit(1);
  }
  return point;
}

// Same EXECUTEs through a cache-disabled session: results must be
// identical (the smoke check ci.sh greps for).
bool CachedMatchesUncached(size_t docs) {
  Server server;
  if (!server.Bootstrap(FixtureScript(docs)).ok()) return false;
  auto cached = server.Connect();
  auto uncached = server.Connect();
  if (!uncached->Execute("SET born.plan_cache = 0").ok()) return false;
  for (auto* session : {cached.get(), uncached.get()}) {
    if (!session->Execute(std::string("PREPARE predict AS ") + kPredictSql)
             .ok()) {
      return false;
    }
  }
  for (size_t docid = 0; docid < std::min<size_t>(docs, 64); ++docid) {
    const std::string sql = StrFormat("EXECUTE predict(%zu)", docid);
    auto a = cached->Execute(sql);
    auto b = uncached->Execute(sql);
    if (!a.ok() || !b.ok()) return false;
    if (a->rows.size() != b->rows.size()) return false;
    for (size_t r = 0; r < a->rows.size(); ++r) {
      for (size_t c = 0; c < a->rows[r].size(); ++c) {
        if (a->rows[r][c].ToString() != b->rows[r][c].ToString()) {
          return false;
        }
      }
    }
  }
  return server.plan_cache().hits() > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string threads_flag = "1,2,4";
  std::string json_path = "BENCH_serving.json";
  const std::vector<bornsql::bench::ExtraFlag> extra = {
      {"--threads=", "comma-separated session counts (default 1,2,4)",
       &threads_flag},
      {"--json=", "report path (default BENCH_serving.json)", &json_path}};
  bornsql::bench::Args args = bornsql::bench::ParseArgs(argc, argv, extra);
  std::vector<int> thread_counts;
  for (const std::string& part : bornsql::Split(threads_flag, ',')) {
    const int n = std::atoi(part.c_str());
    if (n <= 0 || std::to_string(n) != part) {
      bornsql::bench::UsageError(argv[0],
                                 "bad value for --threads: '" + threads_flag +
                                     "' (expected positive integers)",
                                 extra);
    }
    thread_counts.push_back(n);
  }

  const size_t docs = Scaled(400, args.scale);
  const size_t ops_per_thread = Scaled(250, args.scale);

  bornsql::bench::PrintHeader(
      "serving", "concurrent predict traffic through sessions + plan cache");
  std::printf("%zu docs x 2 classes, %zu EXECUTEs per session\n\n", docs,
              ops_per_thread);
  std::printf("%8s %12s %12s %12s %10s %12s\n", "threads", "qps", "p50_us",
              "p99_us", "hit_rate", "peak_bytes");

  std::vector<SweepPoint> sweep;
  std::string prom_text;
  for (int threads : thread_counts) {
    SweepPoint point = RunSweep(threads, docs, ops_per_thread,
                                args.metrics_prom.empty() ? nullptr
                                                          : &prom_text);
    std::printf("%8d %12.0f %12.1f %12.1f %9.1f%% %12llu\n", point.threads,
                point.qps, point.p50_us, point.p99_us, 100.0 * point.hit_rate,
                static_cast<unsigned long long>(point.session_peak_bytes));
    sweep.push_back(point);
  }
  std::printf("\n");

  const bool equal = CachedMatchesUncached(std::min<size_t>(docs, 64));
  double min_hit_rate = 1.0;
  for (const SweepPoint& p : sweep) {
    min_hit_rate = std::min(min_hit_rate, p.hit_rate);
  }
  ShapeCheck(min_hit_rate >= 0.9,
             StrFormat("plan cache hit rate >= 90%% at every thread count "
                       "(min %.1f%%)",
                       100.0 * min_hit_rate));
  ShapeCheck(equal, "cached and uncached EXECUTE return identical rows");

  std::string json = "{\"bench\": \"serving\", \"sweep\": [";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    if (i > 0) json += ", ";
    json += StrFormat(
        "{\"threads\": %d, \"qps\": %.1f, \"p50_us\": %.1f, "
        "\"p99_us\": %.1f, \"hit_rate\": %.4f, \"hits\": %llu, "
        "\"misses\": %llu, \"session_peak_bytes\": %llu, "
        "\"process_peak_bytes\": %llu}",
        p.threads, p.qps, p.p50_us, p.p99_us, p.hit_rate,
        static_cast<unsigned long long>(p.hits),
        static_cast<unsigned long long>(p.misses),
        static_cast<unsigned long long>(p.session_peak_bytes),
        static_cast<unsigned long long>(p.process_peak_bytes));
  }
  json += StrFormat(
      "], \"cached_equals_uncached\": %s, \"peak_memory_bytes\": %llu}\n",
      equal ? "true" : "false",
      static_cast<unsigned long long>(
          bornsql::obs::MemoryTracker::Process().peak()));
  if (!bornsql::bench::WriteTextFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  if (!args.metrics_prom.empty()) {
    if (!bornsql::bench::WriteTextFile(args.metrics_prom, prom_text)) {
      std::fprintf(stderr, "failed to write %s\n", args.metrics_prom.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.metrics_prom.c_str());
  }
  return 0;
}
