#include "spans.hpp"

#include <chrono>
#include <ctime>

namespace perfbench {

namespace {
std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

SpanRecorder::SpanRecorder() : epochNs_{steadyNs()} {}

double SpanRecorder::now() const {
  return static_cast<double>(steadyNs() - epochNs_) * 1e-9;
}

int SpanRecorder::begin(Layer layer, bool cpu) {
  Span s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cpuSeconds = cpu ? processCpuSeconds() : -1;
  const int id = static_cast<int>(spans_.size());
  open_.push_back(id);
  s.wall.start = now();
  spans_.push_back(s);
  return id;
}

void SpanRecorder::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.wall.end = now();
  if (s.cpuSeconds >= 0) {
    s.cpuSeconds = processCpuSeconds() - s.cpuSeconds;
  }
  open_.pop_back();
}

LayerTotals aggregate(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(s.wall);
    }
  }
  LayerTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto l = static_cast<std::size_t>(s.layer);
    const double duration = s.wall.end - s.wall.start;
    t.totalSeconds[l] += duration;
    t.selfSeconds[l] += selfTime(s.wall, std::move(children[i]));
    ++t.calls[l];
    if (s.cpuSeconds >= 0) {
      t.cpuSeconds[l] += s.cpuSeconds;
      t.cpuWallSeconds[l] += duration;
    }
  }
  return t;
}

}  // namespace perfbench
