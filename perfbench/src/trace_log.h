// In-memory span log of the traced run, written as Chrome trace JSON.
//
// The benchmark records a span around every call it makes into a library
// layer (name, start, end, parent span, request id). Spans stay in memory
// and are serialized once, at exit, as Chrome trace-event JSON that
// Perfetto and chrome://tracing open. Numeric args ride on each span —
// the replayed ConvPlan stage durations are attached that way.
//
// When the log is disabled, begin()/end() do nothing and cost one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using u64 = std::uint64_t;
using SpanArgs = std::vector<std::pair<std::string, double>>;

struct Span {
  u64 id = 0;
  u64 parent = 0;   // 0 = root
  u64 request = 0;  // request id shared by the spans of one operation
  std::string name;
  u64 start_ns = 0;  // since the log's epoch
  u64 end_ns = 0;
  int tid = 0;  // small per-thread index
  SpanArgs args;
};

class TraceLog {
 public:
  explicit TraceLog(bool enabled);

  bool enabled() const { return enabled_; }
  /// Nanoseconds since the log's epoch.
  u64 now_ns() const;

  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on this thread. Returns 0 when disabled.
  u64 begin(const std::string& name, u64 request = 0);
  /// Closes a span opened by begin() on this thread.
  void end(u64 id, SpanArgs args = {});
  /// Records a finished span with explicit times (used for per-step
  /// spans derived from the library's own step timers). Returns its id.
  u64 add(const std::string& name, u64 start_ns, u64 end_ns, u64 parent,
          u64 request, SpanArgs args = {});

  std::vector<Span> spans() const;
  std::string chrome_json() const;
  /// Writes chrome_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Open {
    u64 id;
    u64 parent;
    u64 request;
    std::string name;
    u64 start_ns;
  };
  int thread_index();

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards everything below
  u64 next_id_ = 1;
  std::vector<Span> done_;
  std::map<std::uint64_t, int> thread_ids_;        // hashed thread id → tid
  std::map<int, std::vector<Open>> open_;          // tid → open-span stack
};

/// RAII span over a TraceLog (no-op when the log is disabled).
class ScopedSpan {
 public:
  ScopedSpan(TraceLog& log, const std::string& name, u64 request = 0)
      : log_(log), id_(log.begin(name, request)) {}
  ~ScopedSpan() {
    if (id_ != 0) log_.end(id_, std::move(args_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  u64 id() const { return id_; }
  void arg(const std::string& k, double v) {
    if (id_ != 0) args_.emplace_back(k, v);
  }

 private:
  TraceLog& log_;
  const u64 id_;
  SpanArgs args_;
};

/// Σ duration and Σ self time per span name, in milliseconds. A span's
/// self time is its duration minus the part of its interval covered by
/// its direct children (overlapping children count once).
struct NameTotals {
  double total_ms = 0;
  double self_ms = 0;
  std::size_t count = 0;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);

}  // namespace perfbench
