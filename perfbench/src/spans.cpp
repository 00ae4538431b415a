#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(Clock::time_point origin, std::size_t capacity)
    : origin_(origin) {
  spans_.reserve(capacity);
}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int SpanRecorder::begin(const char* name, int parent) {
  const double t = now_s();
  spans_.push_back({name, parent, t, t});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now_s();
  return s.seconds();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}",
                 i == 0 ? "" : ",", s.name, s.begin_s * 1e6,
                 s.seconds() * 1e6, i, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
