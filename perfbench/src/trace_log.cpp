#include "trace_log.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "report.h"

namespace perfbench {

TraceLog::TraceLog(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

u64 TraceLog::now_ns() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - epoch_)
                              .count());
}

int TraceLog::thread_index() {
  const std::uint64_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  auto it = thread_ids_.find(h);
  if (it != thread_ids_.end()) return it->second;
  const int tid = static_cast<int>(thread_ids_.size()) + 1;
  thread_ids_.emplace(h, tid);
  return tid;
}

u64 TraceLog::begin(const std::string& name, u64 request) {
  if (!enabled_) return 0;
  const u64 t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Open>& stack = open_[thread_index()];
  const u64 parent = stack.empty() ? 0 : stack.back().id;
  if (request == 0 && !stack.empty()) request = stack.back().request;
  const u64 id = next_id_++;
  stack.push_back({id, parent, request, name, t});
  return id;
}

void TraceLog::end(u64 id, SpanArgs args) {
  if (!enabled_ || id == 0) return;
  const u64 t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = thread_index();
  std::vector<Open>& stack = open_[tid];
  auto it = std::find_if(stack.begin(), stack.end(),
                         [id](const Open& o) { return o.id == id; });
  if (it == stack.end()) return;
  Span s;
  s.id = it->id;
  s.parent = it->parent;
  s.request = it->request;
  s.name = it->name;
  s.start_ns = it->start_ns;
  s.end_ns = t;
  s.tid = tid;
  s.args = std::move(args);
  done_.push_back(std::move(s));
  stack.erase(it);
}

u64 TraceLog::add(const std::string& name, u64 start_ns, u64 end_ns,
                  u64 parent, u64 request, SpanArgs args) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.tid = thread_index();
  s.args = std::move(args);
  done_.push_back(std::move(s));
  return done_.back().id;
}

std::vector<Span> TraceLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

std::string TraceLog::chrome_json() const {
  std::vector<Span> all = spans();
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    if (!first) os << ',';
    first = false;
    // Complete ("X") events; ts/dur are microseconds.
    os << "{\"name\":" << json_str(s.name) << ",\"cat\":\"perfbench\""
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << json_num(static_cast<double>(s.start_ns) / 1e3)
       << ",\"dur\":"
       << json_num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
       << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request;
    for (const auto& [k, v] : s.args) {
      os << "," << json_str(k) << ":" << json_num(v);
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool TraceLog::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << chrome_json() << '\n';
  return static_cast<bool>(f);
}

namespace {

/// Duration of `self` minus the union of its children's intervals
/// (clipped to `self`).
double self_time_of(const Span& self, const std::vector<const Span*>& kids) {
  std::vector<std::pair<u64, u64>> iv;
  for (const Span* k : kids) {
    const u64 a = std::max(k->start_ns, self.start_ns);
    const u64 b = std::min(k->end_ns, self.end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  u64 covered = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) covered += cur_b - cur_a;
  return static_cast<double>(self.end_ns - self.start_ns) -
         static_cast<double>(covered);
}

std::map<u64, std::vector<const Span*>> children_of(
    const std::vector<Span>& spans) {
  std::map<u64, std::vector<const Span*>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].push_back(&s);
  }
  return kids;
}

}  // namespace

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  const std::vector<const Span*> none;
  std::map<std::string, NameTotals> out;
  for (const Span& s : spans) {
    NameTotals& t = out[s.name];
    auto it = kids.find(s.id);
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += self_time_of(s, it == kids.end() ? none : it->second) / 1e6;
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
