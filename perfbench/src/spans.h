// In-memory spans around the benchmark's calls into the library: name,
// start, end and the span that caused it. Kept in memory while the
// workload runs and written out once, at the end, as a Chrome trace
// (chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal
  int parent = -1;        ///< index of the causing span, -1 for a root
  double begin_s = 0.0;   ///< seconds since the recorder's origin
  double end_s = 0.0;
  double seconds() const { return end_s - begin_s; }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// `origin` is time zero of every span (the process's start).
  SpanRecorder(Clock::time_point origin, std::size_t capacity);

  /// Open a span; returns its index.
  int begin(const char* name, int parent = -1);
  /// Close span `id`; returns its duration in seconds.
  double end(int id);

  double now_s() const;
  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  /// Write every span as a Chrome trace "X" event. Returns false if the
  /// file could not be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
