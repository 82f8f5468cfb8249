// Spans recorded by the benchmark's own code around each call into a layer.
//
// A span holds its name, start, end, the span that caused it and the request
// it belongs to. Every thread records into its own buffer (no sharing on the
// hot path); buffers stay in memory and are written to one file when the run
// ends. With tracing off no buffer exists and every recording site is a
// null-pointer test.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a root span
  uint64_t request = 0;
  const char* name = "";  // string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One thread's spans. Ids are unique across buffers: the buffer index sits
/// in the high bits.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint64_t index) : next_id_((index << 40) | 1) {
    spans_.reserve(1 << 16);
  }

  uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                  uint64_t start_ns, uint64_t end_ns) {
    const uint64_t id = next_id_++;
    spans_.push_back({id, parent, request, name, start_ns, end_ns});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  /// A buffer for one thread; nullptr when tracing is off.
  SpanBuffer* NewBuffer() {
    if (!on_) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>(buffers_.size() + 1));
    return buffers_.back().get();
  }

  /// Per span name: how many spans, and the median of their durations and
  /// of their self times (duration minus the spans whose parent they are —
  /// on a ladder, the rung below on the same request). Call after every
  /// recording thread has joined.
  struct Rung {
    std::string name;
    uint64_t spans = 0;
    double median_ns = 0;
    double median_self_ns = 0;
  };
  std::vector<Rung> Summarize() const;

  uint64_t num_spans() const;

  /// Writes every span, one per line: id, parent, request, name, start and
  /// end in ns (tab-separated, with a header line). False on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool on_;
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Serve-phase reads record a span for one request in this many, so a
/// traced run's span file stays a few MB; writes and ladder rungs record
/// every request.
inline constexpr uint64_t kReadSpanSample = 8;

/// Runs `fn`, recording a span into `buf` when it is non-null. Returns the
/// elapsed time in ns; `*span_id` (when given) receives the span's id, 0 when
/// nothing was recorded.
template <typename Fn>
uint64_t TimeCall(SpanBuffer* buf, const char* name, uint64_t request,
                  uint64_t parent, Fn&& fn, uint64_t* span_id = nullptr) {
  const uint64_t t0 = NowNs();
  fn();
  const uint64_t t1 = NowNs();
  const uint64_t id =
      buf != nullptr ? buf->Record(name, request, parent, t0, t1) : 0;
  if (span_id != nullptr) *span_id = id;
  return t1 - t0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
