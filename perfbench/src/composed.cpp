#include "composed.hpp"

#include <algorithm>
#include <memory>

#include "flatdd/conversion.hpp"
#include "flatdd/cost_model.hpp"
#include "flatdd/dmav_plan.hpp"
#include "simd/calibration.hpp"
#include "simd/kernels.hpp"

namespace perfbench {

using fdd::Complex;
using fdd::Index;
using Scope = SpanRecorder::Scope;

namespace {
unsigned ddThreadsOf(const fdd::engine::EngineOptions& o) {
  return o.ddThreads == 0 ? o.threads : o.ddThreads;
}
}  // namespace

ComposedFlatDD::ComposedFlatDD(fdd::Qubit nQubits,
                               const fdd::engine::EngineOptions& options,
                               SpanRecorder& recorder)
    : n_{nQubits},
      options_{options},
      rec_{recorder},
      dd_{nQubits, options.tolerance},
      ewma_{options.ewmaBeta,
            options.ewmaEpsilon *
                fdd::flat::ddPhaseSpeedup(ddThreadsOf(options)) /
                fdd::simd::arrayPhaseSpeedup(),
            options.ewmaWarmupGates, options.ewmaMinDDSize},
      cache_{options.usePlanCache ? options.planCacheCapacity : 0} {
  dd_.setThreads(ddThreadsOf(options));
}

unsigned ComposedFlatDD::replayThreads() const noexcept {
  const Index dim = Index{1} << n_;
  return dim < options_.parallelThresholdDim ? 1 : options_.threads;
}

void ComposedFlatDD::simulate(const fdd::qc::Circuit& circuit) {
  const Scope simulate{rec_, Layer::Simulate};
  cdfValid_ = false;
  auto& pkg = dd_.package();
  const auto& ops = circuit.operations();
  std::size_t i = 0;

  for (; i < ops.size() && !flat_; ++i) {
    fdd::dd::mEdge gate;
    {
      const Scope s{rec_, Layer::GateBuild};
      gate = pkg.makeGateDD(ops[i]);
    }
    fdd::dd::vEdge next;
    {
      const Scope s{rec_, Layer::DdApply, true};
      next = pkg.multiply(gate, dd_.state());
    }
    {
      const Scope s{rec_, Layer::DdGc};
      dd_.replaceState(next);
    }
    std::size_t size = 0;
    bool trigger = false;
    {
      const Scope s{rec_, Layer::Ewma};
      size = dd_.stateNodeCount();
      trigger = ewma_.observe(size);
    }
    stats_.peakDDSize = std::max(stats_.peakDDSize, size);
    ++stats_.ddGates;
    // Same guard as the program: never convert after a batch's last gate.
    if (trigger && i + 1 < ops.size()) {
      convert(i + 1);
    }
  }
  if (!flat_) {
    return;
  }

  std::vector<fdd::dd::mEdge> gates;
  gates.reserve(ops.size() - i);
  for (std::size_t g = i; g < ops.size(); ++g) {
    const Scope s{rec_, Layer::GateBuild};
    const fdd::dd::mEdge m = pkg.makeGateDD(ops[g]);
    pkg.incRef(m);
    gates.push_back(m);
  }
  const bool fuseRuns = options_.fuseDiagonalRuns && options_.usePlanCache;
  for (std::size_t g = 0; g < gates.size();) {
    std::size_t runEnd = g;
    if (fuseRuns) {
      while (runEnd < gates.size() &&
             runEnd - g < fdd::flat::kMaxDiagRunGates &&
             fdd::flat::isDiagonalGateDD(gates[runEnd])) {
        ++runEnd;
      }
    }
    if (runEnd - g >= 2) {
      const std::size_t runLen = runEnd - g;
      applyDiagRun(std::span<const fdd::dd::mEdge>{gates.data() + g, runLen});
      for (std::size_t r = g; r < runEnd; ++r) {
        pkg.decRef(gates[r]);
      }
      stats_.diagRunGates += runLen;
      stats_.dmavGates += runLen;
      g = runEnd;
      continue;
    }
    applyGate(gates[g]);
    pkg.decRef(gates[g]);
    ++stats_.dmavGates;
    ++g;
  }
  const Scope s{rec_, Layer::DdGc};
  pkg.garbageCollect(true);
}

void ComposedFlatDD::convert(std::size_t gateIndex) {
  const Scope s{rec_, Layer::Conversion};
  const Index dim = Index{1} << n_;
  v_.resize(dim);
  w_.resize(dim);
  fdd::flat::ddToArrayParallel(dd_.state(), n_, v_, options_.threads);
  {
    const Scope gc{rec_, Layer::DdGc};
    dd_.releaseState();
  }
  flat_ = true;
  stats_.converted = true;
  stats_.conversionGateIndex = gateIndex;
  stats_.conversionBytes += dim * sizeof(Complex);
}

void ComposedFlatDD::applyDiagRun(std::span<const fdd::dd::mEdge> run) {
  const unsigned threads = replayThreads();
  bool hit = false;
  std::shared_ptr<const fdd::flat::DmavPlan> plan;
  {
    const Scope s{rec_, Layer::Plan};
    plan = cache_.getSharedRun(dd_.package(), run, n_, threads, &hit);
  }
  ++stats_.planLookups;
  stats_.planHits += hit ? 1 : 0;
  stats_.planCompiles += hit ? 0 : 1;
  {
    const Scope s{rec_, Layer::Replay, true};
    fdd::flat::replayPlan(*plan, v_, w_);
  }
  ++stats_.replays;
  stats_.replayBytes += 2 * v_.size() * sizeof(Complex);
  std::swap(v_, w_);
}

void ComposedFlatDD::applyGate(const fdd::dd::mEdge& gate) {
  const unsigned threads = replayThreads();
  const unsigned lanes = fdd::simd::lanes();
  const bool dense = options_.usePlanCache && !options_.forceCaching &&
                     fdd::flat::denseBlockProbe(gate, n_).has_value();
  bool useCache = options_.forceCaching;
  if (!useCache && !dense && options_.useCostModel) {
    useCache = fdd::flat::cachingBeneficial(gate, n_, threads, lanes);
  }
  // The program charges the Eq. 5/6 model cost of every DMAV.
  [[maybe_unused]] const fdd::fp cost =
      fdd::flat::dmavCost(gate, n_, threads, lanes);
  const auto mode =
      useCache ? fdd::flat::PlanMode::Cached : fdd::flat::PlanMode::Row;
  bool hit = false;
  std::shared_ptr<const fdd::flat::DmavPlan> plan;
  {
    const Scope s{rec_, Layer::Plan};
    plan = cache_.getShared(dd_.package(), gate, n_, threads, mode, &hit);
  }
  ++stats_.planLookups;
  stats_.planHits += hit ? 1 : 0;
  stats_.planCompiles += hit ? 0 : 1;
  {
    const Scope s{rec_, Layer::Replay, true};
    if (useCache) {
      (void)fdd::flat::replayPlanCached(*plan, v_, w_, workspace_);
    } else {
      fdd::flat::replayPlan(*plan, v_, w_);
    }
  }
  ++stats_.replays;
  stats_.replayBytes += 2 * v_.size() * sizeof(Complex);
  std::swap(v_, w_);
}

std::vector<Index> ComposedFlatDD::sample(std::size_t shots,
                                          fdd::Xoshiro256& rng) {
  const Scope s{rec_, Layer::Sample};
  stats_.sampledShots += shots;
  if (!flat_) {
    return dd_.package().sample(dd_.state(), shots, rng);
  }
  std::vector<fdd::fp> cdf(v_.size());
  fdd::fp acc = 0;
  for (Index i = 0; i < v_.size(); ++i) {
    acc += fdd::norm2(v_[i]);
    cdf[i] = acc;
  }
  std::vector<Index> out;
  out.reserve(shots);
  for (std::size_t k = 0; k < shots; ++k) {
    const fdd::fp r = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
    out.push_back(static_cast<Index>(std::min<std::ptrdiff_t>(
        it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1)));
  }
  return out;
}

std::vector<Index> ComposedFlatDD::sessionSample(std::size_t shots,
                                                 fdd::Xoshiro256& rng) {
  const Scope s{rec_, Layer::Sample};
  stats_.sampledShots += shots;
  if (!cdfValid_) {
    const fdd::AlignedVector<Complex> state = stateVector();
    cdf_.resize(state.size());
    fdd::fp acc = 0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      acc += state[i].real() * state[i].real() +
             state[i].imag() * state[i].imag();
      cdf_[i] = acc;
    }
    cdfValid_ = true;
  }
  const fdd::fp norm = cdf_.empty() ? fdd::fp{0} : cdf_.back();
  std::vector<Index> out;
  out.reserve(shots);
  for (std::size_t k = 0; k < shots; ++k) {
    const fdd::fp r = rng.uniform() * norm;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
    out.push_back(static_cast<Index>(
        it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin()));
  }
  return out;
}

fdd::AlignedVector<Complex> ComposedFlatDD::stateVector() const {
  return flat_ ? v_
               : fdd::flat::ddToArrayParallel(dd_.state(), n_,
                                              options_.threads);
}

std::size_t ComposedFlatDD::computeHits() const {
  return dd_.package().stats().computeHits;
}

std::size_t ComposedFlatDD::computeLookups() const {
  const fdd::dd::PackageStats st = dd_.package().stats();
  return st.computeHits + st.computeMisses;
}

}  // namespace perfbench
