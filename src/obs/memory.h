// Hierarchical memory accounting for the BornSQL engine.
//
// A MemoryTracker is one node in a process -> session -> query -> operator
// hierarchy. Reserving charges the whole ancestor chain with relaxed
// atomics (one fetch_add per level), so the hot path costs a handful of
// uncontended atomic ops; releasing mirrors the walk. Each tracker keeps
// current and peak bytes, an optional byte limit (0 = unlimited), and a
// count of reservations it denied.
//
// TryReserve enforces limits: when any level in the chain would exceed its
// limit the charge is unwound from the levels already charged, the denying
// tracker's `denials` counter is bumped, and a ResourceExhausted status
// naming the caller's context (typically an operator DebugString) is
// returned — so an over-budget query fails cleanly at the reserve site
// with no partial accounting left behind.
//
// The process-wide root (MemoryTracker::Process()) is reachable from
// MetricsRegistry::memory_root() and feeds the born_stat_memory system
// view and the Prometheus export. Children register with their parent so
// SnapshotTree() can render the live hierarchy; registration and the
// snapshot walk are mutex-guarded, the byte counters are not.
#ifndef BORNSQL_OBS_MEMORY_H_
#define BORNSQL_OBS_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_ranks.h"
#include "common/status.h"
#include "common/thread_safety.h"
#include "common/tracked_mutex.h"
#include "types/value.h"

namespace bornsql::obs {

class MemoryTracker {
 public:
  // `level` names the tier ("process", "storage", "session", "query",
  // "cache", ...) and is what born_stat_memory / the Prometheus export
  // group by; `label` identifies the instance ("session 3").
  MemoryTracker(std::string label, std::string level, MemoryTracker* parent);
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;
  ~MemoryTracker();

  // The process-wide root every other tracker chains up to by default.
  // Leaked intentionally: storage and cache trackers charge it from static
  // destructors' vicinity, so it must outlive everything.
  static MemoryTracker& Process();

  const std::string& label() const { return label_; }
  const std::string& level() const { return level_; }
  MemoryTracker* parent() const { return parent_; }

  // Charges `bytes` against this tracker and every ancestor, enforcing
  // each level's limit. On denial the partial charge is unwound, the
  // denying tracker counts it, and the returned status names `context`
  // (the operator that tripped) plus the offended tracker and its limit.
  Status TryReserve(uint64_t bytes, std::string_view context);

  // TryReserve that renders the context (`context()`, convertible to a
  // string_view) only on denial, for callers whose context is costly to
  // build, such as an operator's DebugString.
  template <typename ContextFn>
  Status TryReserveWith(uint64_t bytes, ContextFn&& context) {
    const MemoryTracker* denied = Charge(bytes);
    return denied == nullptr ? Status::OK() : denied->Denial(bytes, context());
  }

  // Unchecked charge (storage buffers, cache entries): accounting must
  // stay accurate even when a limit is exceeded by non-query allocations.
  void Reserve(uint64_t bytes);

  // Releases a previous charge up the same chain (saturating at zero, so
  // double-release bugs cannot wrap the gauges).
  void Release(uint64_t bytes);

  uint64_t current() const { return current_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t denials() const { return denials_.load(std::memory_order_relaxed); }

  // 0 = unlimited.
  uint64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  void set_limit(uint64_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }

  // Resets the high-water mark to the live charge. Safe against concurrent
  // reserves: a plain load-then-store could clobber a higher peak a racing
  // reservation published between the two, so after the store the
  // implementation re-applies the CAS max against the live charge
  // (recorded peak can never end below a concurrent maximum of current).
  void ResetPeak();

  // One row per live tracker, pre-order from this node (depth 0 = self).
  struct SnapshotRow {
    std::string label;
    std::string level;
    int depth = 0;
    uint64_t current_bytes = 0;
    uint64_t peak_bytes = 0;
    uint64_t limit_bytes = 0;  // 0 = unlimited
    uint64_t denials = 0;
  };
  std::vector<SnapshotRow> SnapshotTree() const;

 private:
  // Charges this node only; returns false (leaving the node unchanged)
  // when a limit would be exceeded. `checked` false skips the limit.
  bool AddLocal(uint64_t bytes, bool checked);
  // Charges `bytes` up the chain, enforcing each limit. Null on success;
  // on denial, the tracker that denied (already counted), with the partial
  // charge unwound.
  const MemoryTracker* Charge(uint64_t bytes);
  // The ResourceExhausted status for a denial by this tracker.
  Status Denial(uint64_t bytes, std::string_view context) const;
  void SubLocal(uint64_t bytes);
  // Compare-exchange max: publishes `candidate` as the peak unless a
  // concurrent reservation already recorded a higher one.
  void UpdatePeak(uint64_t candidate);
  void SnapshotInto(int depth, std::vector<SnapshotRow>* out) const;

  const std::string label_;
  const std::string level_;
  MemoryTracker* const parent_;

  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> limit_{0};
  std::atomic<uint64_t> denials_{0};

  // kNestsSameRank: SnapshotInto holds a parent's child-list lock while
  // taking each child's — the tree fixes the instance order, so the rank
  // checker permits the same-rank nesting for this lock only.
  mutable TrackedMutex children_mu_{"memory.children",
                                    lock_rank::kMemoryTracker,
                                    TrackedMutex::kNestsSameRank};
  std::vector<MemoryTracker*> children_ BORN_GUARDED_BY(children_mu_);
};

// Approximate heap footprint of a Value / Row, the unit every accounting
// site charges in: sizeof the tagged struct plus owned text bytes (small
// strings under the SSO threshold still count their capacity as part of
// sizeof, so this slightly overcounts short text — a deliberate, cheap
// approximation).
uint64_t ApproxValueBytes(const Value& v);
uint64_t ApproxRowBytes(const Row& row);

}  // namespace bornsql::obs

#endif  // BORNSQL_OBS_MEMORY_H_
