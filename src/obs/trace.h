// Span-based statement tracing.
//
// Every executed statement can record a small tree of spans — the statement
// itself, its phases (lex, parse, bind+plan, execute) and, for instrumented
// runs, one span per executor operator (derived from the first/last call
// timestamps the Open()/Next() hooks already collect). Traces are kept in a
// bounded ring buffer per recorder and export as Chrome `trace_event` JSON
// loadable by chrome://tracing / Perfetto.
//
// All span times are nanoseconds on the steady clock relative to the
// recorder's epoch (its construction time), so traces from one recorder
// share a timeline. Nesting in the Chrome view is derived from interval
// containment on a single track, which holds by construction: phases lie
// inside their statement and operator lifetimes lie inside execute.
#ifndef BORNSQL_OBS_TRACE_H_
#define BORNSQL_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/lock_ranks.h"
#include "common/thread_safety.h"
#include "common/tracked_mutex.h"
#include "obs/stats.h"

namespace bornsql::obs {

struct TraceSpan {
  std::string name;      // phase name or operator DebugString
  const char* category = "phase";  // "phase" | "operator"
  uint64_t start_ns = 0;           // relative to the recorder epoch
  uint64_t dur_ns = 0;
};

// One statement's trace: the root interval plus its child spans.
struct StatementTrace {
  uint64_t id = 0;  // assigned by the recorder, monotonically increasing
  std::string statement;  // normalized text (or a prepared-statement key)
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t rows = 0;  // result rows (SELECT) or rows affected (DML)
  bool error = false;
  std::vector<TraceSpan> spans;
};

// Bounded ring buffer of statement traces. Mutex-guarded for the same
// reason as MetricsRegistry: several Database instances may share one.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  // Nanoseconds since this recorder's epoch (never 0: the epoch is nudged
  // one tick back so "unset" stays distinguishable).
  uint64_t NowNs() const;
  // Converts an absolute steady-clock reading (SteadyNowNs, or
  // OperatorStats::first_ns/last_ns) onto this recorder's timeline.
  uint64_t RelativeNs(uint64_t steady_ns) const;

  // Stores `trace` (assigning its id), evicting the oldest when full.
  void Record(StatementTrace trace);

  // Oldest-to-newest copy of the buffered traces.
  std::vector<StatementTrace> Snapshot() const;

  void Clear();
  // Changing capacity keeps the newest `capacity` traces.
  void set_capacity(size_t capacity);
  size_t capacity() const;
  size_t size() const;

 private:
  mutable TrackedMutex mu_{"trace.recorder", lock_rank::kTrace};
  const uint64_t epoch_ns_;  // set once at construction, read lock-free
  // Fixed ring: grows to capacity_, then each Record overwrites the oldest
  // slot, ring_[head_]. Until it is full, head_ stays 0 and ring_ is
  // chronological.
  std::vector<StatementTrace> ring_ BORN_GUARDED_BY(mu_);
  size_t head_ BORN_GUARDED_BY(mu_) = 0;
  size_t capacity_ BORN_GUARDED_BY(mu_);
  uint64_t next_id_ BORN_GUARDED_BY(mu_) = 1;
};

// Renders traces as a Chrome trace_event JSON array ("X" complete events,
// one pid/tid track; ts/dur in microseconds). Statement events carry
// args.rows / args.error / args.id.
std::string ChromeTraceJson(const std::vector<StatementTrace>& traces);

}  // namespace bornsql::obs

#endif  // BORNSQL_OBS_TRACE_H_
