#include "obs/memory.h"

#include <algorithm>

#include "common/strings.h"

namespace bornsql::obs {

MemoryTracker::MemoryTracker(std::string label, std::string level,
                             MemoryTracker* parent)
    : label_(std::move(label)), level_(std::move(level)), parent_(parent) {
  if (parent_ != nullptr) {
    MutexLock lock(&parent_->children_mu_);
    parent_->children_.push_back(this);
  }
}

MemoryTracker::~MemoryTracker() {
  // Unregister before touching the counters so a concurrent SnapshotTree
  // on an ancestor can never walk into a half-destroyed node.
  if (parent_ != nullptr) {
    {
      MutexLock lock(&parent_->children_mu_);
      auto& siblings = parent_->children_;
      siblings.erase(std::remove(siblings.begin(), siblings.end(), this),
                     siblings.end());
    }
    // Anything still charged here (a query aborted mid-operator, an
    // operator torn down before its release) drains from the ancestors
    // so the process gauge returns to truth.
    const uint64_t residual = current_.load(std::memory_order_relaxed);
    if (residual > 0) parent_->Release(residual);
  }
}

MemoryTracker& MemoryTracker::Process() {
  static MemoryTracker* const process =
      new MemoryTracker("process", "process", nullptr);
  return *process;
}

void MemoryTracker::UpdatePeak(uint64_t candidate) {
  // CAS max loop: a plain "if (candidate > peak) store(candidate)" could
  // overwrite a higher peak a concurrent reservation published between
  // the load and the store, under-reporting the true high-water mark.
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (candidate > peak &&
         !peak_.compare_exchange_weak(peak, candidate,
                                      std::memory_order_relaxed)) {
  }
}

bool MemoryTracker::AddLocal(uint64_t bytes, bool checked) {
  if (checked) {
    const uint64_t limit = limit_.load(std::memory_order_relaxed);
    if (limit > 0) {
      // CAS loop so two racing reservations cannot both slip under the
      // limit; the unchecked path below stays a single fetch_add.
      uint64_t cur = current_.load(std::memory_order_relaxed);
      do {
        if (cur + bytes > limit) {
          denials_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
      } while (!current_.compare_exchange_weak(cur, cur + bytes,
                                               std::memory_order_relaxed));
      UpdatePeak(cur + bytes);
      return true;
    }
  }
  const uint64_t now =
      current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  UpdatePeak(now);
  return true;
}

void MemoryTracker::SubLocal(uint64_t bytes) {
  // Saturating subtract: a stray double-release clamps to zero instead of
  // wrapping the gauge to 2^64.
  uint64_t cur = current_.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = cur >= bytes ? cur - bytes : 0;
  } while (
      !current_.compare_exchange_weak(cur, next, std::memory_order_relaxed));
}

void MemoryTracker::ResetPeak() {
  peak_.store(current_.load(std::memory_order_relaxed),
              std::memory_order_seq_cst);
  // A reservation racing with the store above may have raised current_ and
  // had its UpdatePeak clobbered by our stale value; re-apply the max so
  // the recorded peak never ends below the live charge. seq_cst keeps the
  // re-load from being hoisted above the store (StoreLoad): every reserve
  // is then either visible to this load or CAS-maxes after our store, so
  // once no reset is mid-flight, peak >= current always holds.
  UpdatePeak(current_.load(std::memory_order_seq_cst));
}

Status MemoryTracker::TryReserve(uint64_t bytes, std::string_view context) {
  return TryReserveWith(bytes, [context] { return context; });
}

const MemoryTracker* MemoryTracker::Charge(uint64_t bytes) {
  if (bytes == 0) return nullptr;
  for (MemoryTracker* node = this; node != nullptr; node = node->parent_) {
    if (!node->AddLocal(bytes, /*checked=*/true)) {
      // Unwind the levels already charged so no partial accounting
      // survives the failure.
      for (MemoryTracker* undo = this; undo != node; undo = undo->parent_) {
        undo->SubLocal(bytes);
      }
      return node;
    }
  }
  return nullptr;
}

Status MemoryTracker::Denial(uint64_t bytes, std::string_view context) const {
  return Status::ResourceExhausted(StrFormat(
      "memory limit exceeded reserving %llu bytes in %.*s: %s tracker "
      "'%s' at %llu of %llu byte limit",
      static_cast<unsigned long long>(bytes),
      static_cast<int>(context.size()), context.data(), level_.c_str(),
      label_.c_str(), static_cast<unsigned long long>(current()),
      static_cast<unsigned long long>(limit())));
}

void MemoryTracker::Reserve(uint64_t bytes) {
  if (bytes == 0) return;
  for (MemoryTracker* node = this; node != nullptr; node = node->parent_) {
    node->AddLocal(bytes, /*checked=*/false);
  }
}

void MemoryTracker::Release(uint64_t bytes) {
  if (bytes == 0) return;
  for (MemoryTracker* node = this; node != nullptr; node = node->parent_) {
    node->SubLocal(bytes);
  }
}

void MemoryTracker::SnapshotInto(int depth,
                                 std::vector<SnapshotRow>* out) const {
  SnapshotRow row;
  row.label = label_;
  row.level = level_;
  row.depth = depth;
  row.current_bytes = current();
  row.peak_bytes = peak();
  row.limit_bytes = limit();
  row.denials = denials();
  out->push_back(std::move(row));
  MutexLock lock(&children_mu_);
  for (const MemoryTracker* child : children_) {
    child->SnapshotInto(depth + 1, out);
  }
}

std::vector<MemoryTracker::SnapshotRow> MemoryTracker::SnapshotTree() const {
  std::vector<SnapshotRow> rows;
  SnapshotInto(0, &rows);
  return rows;
}

uint64_t ApproxValueBytes(const Value& v) {
  uint64_t bytes = sizeof(Value);
  if (v.type() == ValueType::kText) bytes += v.AsText().size();
  return bytes;
}

uint64_t ApproxRowBytes(const Row& row) {
  uint64_t bytes = sizeof(Row);
  for (const Value& v : row) bytes += ApproxValueBytes(v);
  return bytes;
}

}  // namespace bornsql::obs
