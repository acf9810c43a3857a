// Benchmark-side span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public functions; nothing inside src/ is instrumented. A span
// carries its name, start and end on one steady clock, the index of the span
// that caused it, and the id of the analysis or request it belongs to. Spans
// stay in memory and are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Milliseconds on the process-wide steady clock. Every span and every
// cross-thread timestamp uses this one time base.
double clock_ms();

inline constexpr std::int64_t kNoSpan = -1;

struct Span {
  std::string name;
  double start_ms{0.0};
  double end_ms{0.0};
  std::int64_t parent{kNoSpan};
  std::uint64_t request{0};
};

// Per-name aggregate. Self time is a span's duration minus the part of it
// that its child spans cover.
struct SpanTotals {
  std::uint64_t count{0};
  double total_ms{0.0};
  double self_ms{0.0};
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_ms_(clock_ms()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span whose parent is the innermost span this thread has open,
  // and makes it the innermost. close() must run on the same thread.
  std::int64_t open(const char* name, std::uint64_t request);
  void close(std::int64_t id);

  // Records a finished span timed elsewhere, e.g. one whose start and end
  // were seen by different threads. Returns its index.
  std::int64_t add(Span span);

  std::map<std::string, SpanTotals> totals() const;

  // One JSON object per span, times relative to the recorder's creation.
  bool write_jsonl(const std::string& path) const;

 private:
  double origin_ms_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// RAII span; a null recorder makes it a no-op (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, std::uint64_t request)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, request) : kNoSpan) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  std::int64_t id_;
};

}  // namespace perfbench
