// Span recording for the perfbench traced run. Spans are recorded by the
// harness around each call it makes into a layer's public functions; nothing
// inside src/ is instrumented. They stay in memory and are written out once
// as Chrome trace-event JSON, on the same clock as the library's own QC_TRACE
// output (telemetry::TraceNowNs), so both files load side by side.
#ifndef QC_PERFBENCH_SPANS_H_
#define QC_PERFBENCH_SPANS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace qc::perfbench {

struct Span {
  const char* name = "";   // string literal
  const char* layer = "";  // string literal: the module the call lands in
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   // index of the enclosing span, -1 at top level
  uint64_t op = 0;   // id of the timed operation the span belongs to
  int tid = 0;       // 0 = the harness's main thread
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (overlapping children are counted once, and a
// child sticking out of its parent is clipped to it).
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo_raw, hi_raw] : iv) {
      int64_t lo = std::max(lo_raw, p.start_ns);
      int64_t hi = std::min(hi_raw, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

// Sum of self time per layer over the spans accepted by `keep`.
template <typename Keep>
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans,
                                               Keep keep) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (keep(spans[i])) out[spans[i].layer] += self[i];
  }
  return out;
}

// Thread-safe in-memory span store. Begin/End nest on the main thread (the
// open-span stack gives each span its parent); Add records a finished span
// from any thread.
class SpanRecorder {
 public:
  int Begin(const char* name, const char* layer, uint64_t op, int64_t now) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_ns = now;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id, int64_t now) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  void Add(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Writes `spans` as a Chrome trace-event file ("ph":"X" complete events,
// microsecond timestamps). Returns false when the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.layer, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.tid, i, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace qc::perfbench

#endif  // QC_PERFBENCH_SPANS_H_
