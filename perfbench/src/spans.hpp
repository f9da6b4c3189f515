#pragma once
// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into the simulator's public functions and
// kept until the run ends; a layer's self time is its spans' durations minus
// the time their child spans cover.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  Job,         // one job (one-shot circuit + shots, or apply + sample)
  Simulate,    // the engine's simulate() as composed from the layers below
  GateBuild,   // dd::Package::makeGateDD
  DdApply,     // dd::Package::multiply
  DdGc,        // DDSimulator::replaceState/releaseState, garbageCollect
  Ewma,        // DD node count + EwmaMonitor::observe
  Conversion,  // ddToArrayParallel (+ the state release nested as DdGc)
  Plan,        // PlanCache::getShared / getSharedRun (compile on a miss)
  Replay,      // replayPlan / replayPlanCached
  Sample,      // Backend::sample / Session::sample as composed
  QasmParse,   // qasm::parse
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

struct Span {
  Layer layer = Layer::Job;
  int parent = -1;        // index of the enclosing span, -1 for a root
  Interval wall;          // seconds since the recorder's epoch
  double cpuSeconds = -1; // process CPU time inside the span; -1 = not taken
};

/// Single-threaded recorder: spans nest by the order begin()/end() are
/// called on it.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span as a child of the innermost open span. With `cpu`, the
  /// process CPU clock is read at both ends (for utilization ratios).
  int begin(Layer layer, bool cpu = false);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Seconds since the recorder's epoch on the same clock as the spans.
  [[nodiscard]] double now() const;

  class Scope {
   public:
    Scope(SpanRecorder& rec, Layer layer, bool cpu = false)
        : rec_{rec}, id_{rec.begin(layer, cpu)} {}
    ~Scope() { rec_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t epochNs_ = 0;
};

/// Per-layer sums over a set of spans.
struct LayerTotals {
  std::array<double, kLayerCount> selfSeconds{};
  std::array<double, kLayerCount> totalSeconds{};
  std::array<std::size_t, kLayerCount> calls{};
  // Only spans recorded with cpu=true contribute to these two.
  std::array<double, kLayerCount> cpuSeconds{};
  std::array<double, kLayerCount> cpuWallSeconds{};
};

[[nodiscard]] LayerTotals aggregate(const std::vector<Span>& spans);

}  // namespace perfbench
