#include "obs/trace.h"

#include <algorithm>

#include "common/strings.h"

namespace bornsql::obs {

TraceRecorder::TraceRecorder(size_t capacity)
    // Nudge the epoch back one tick so a span starting immediately after
    // construction still gets a nonzero relative timestamp.
    : epoch_ns_(SteadyNowNs() - 1), capacity_(std::max<size_t>(capacity, 1)) {}

uint64_t TraceRecorder::NowNs() const { return SteadyNowNs() - epoch_ns_; }

uint64_t TraceRecorder::RelativeNs(uint64_t steady_ns) const {
  return steady_ns > epoch_ns_ ? steady_ns - epoch_ns_ : 0;
}

void TraceRecorder::Record(StatementTrace trace) {
  MutexLock lock(&mu_);
  trace.id = next_id_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(trace));
    return;
  }
  ring_[head_] = std::move(trace);
  head_ = (head_ + 1) % capacity_;
}

std::vector<StatementTrace> TraceRecorder::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<StatementTrace> out;
  out.reserve(ring_.size());
  const auto head = ring_.begin() + static_cast<ptrdiff_t>(head_);
  out.insert(out.end(), head, ring_.end());
  out.insert(out.end(), ring_.begin(), head);
  return out;
}

void TraceRecorder::Clear() {
  MutexLock lock(&mu_);
  ring_.clear();
  head_ = 0;
}

void TraceRecorder::set_capacity(size_t capacity) {
  MutexLock lock(&mu_);
  // Back to chronological order, then keep the newest `capacity`.
  std::rotate(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(head_),
              ring_.end());
  head_ = 0;
  capacity_ = std::max<size_t>(capacity, 1);
  if (ring_.size() > capacity_) {
    ring_.erase(ring_.begin(),
                ring_.begin() +
                    static_cast<ptrdiff_t>(ring_.size() - capacity_));
  }
}

size_t TraceRecorder::capacity() const {
  MutexLock lock(&mu_);
  return capacity_;
}

size_t TraceRecorder::size() const {
  MutexLock lock(&mu_);
  return ring_.size();
}

namespace {

// One Chrome "complete" event. chrome://tracing expects ts/dur in
// microseconds; fractional values are accepted, so ns precision survives.
void AppendEvent(std::string* out, std::string_view name,
                 std::string_view category, uint64_t start_ns,
                 uint64_t dur_ns, const std::string& args_json) {
  *out += StrFormat(
      "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1",
      JsonEscape(name).c_str(), JsonEscape(category).c_str(),
      static_cast<double>(start_ns) / 1e3, static_cast<double>(dur_ns) / 1e3);
  if (!args_json.empty()) {
    *out += ", \"args\": " + args_json;
  }
  *out += "}";
}

}  // namespace

std::string ChromeTraceJson(const std::vector<StatementTrace>& traces) {
  std::string out = "[\n";
  bool first = true;
  for (const StatementTrace& trace : traces) {
    if (!first) out += ",\n";
    first = false;
    AppendEvent(
        &out, trace.statement, "statement", trace.start_ns, trace.dur_ns,
        StrFormat("{\"id\": %llu, \"rows\": %llu, \"error\": %s}",
                  static_cast<unsigned long long>(trace.id),
                  static_cast<unsigned long long>(trace.rows),
                  trace.error ? "true" : "false"));
    for (const TraceSpan& span : trace.spans) {
      out += ",\n";
      AppendEvent(&out, span.name, span.category, span.start_ns, span.dur_ns,
                  "");
    }
  }
  out += "\n]\n";
  return out;
}

}  // namespace bornsql::obs
