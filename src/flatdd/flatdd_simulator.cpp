#include "flatdd/flatdd_simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "dd/reorder.hpp"
#include "flatdd/conversion.hpp"
#include "flatdd/cost_model.hpp"
#include "flatdd/dmav.hpp"
#include "flatdd/fusion.hpp"
#include "obs/metrics.hpp"
#include "simd/calibration.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {

FlatDDSimulator::FlatDDSimulator(Qubit nQubits, FlatDDOptions options)
    : nQubits_{nQubits},
      options_{options},
      ddSim_{nQubits, options.tolerance},
      // A faster array phase (AVX-512 tier vs the AVX2 reference, measured
      // by simd::arrayPhaseSpeedup()) shrinks the DD-vs-array break-even DD
      // size — epsilon's job — moving conversion earlier; the factor is
      // exactly 1.0 on AVX2 hosts so calibrated tiers only ever shift the
      // trigger where the kernels are genuinely faster. The DD phase is
      // sequential, so the thread count never moves the trigger.
      ewma_{options.beta, options.epsilon / simd::arrayPhaseSpeedup(),
            options.warmupGates, options.minDDSize},
      planCache_{options.sharedPlanCache != nullptr
                     ? 0
                     : (options.usePlanCache ? options.planCacheCapacity : 0)},
      cache_{options.sharedPlanCache != nullptr ? options.sharedPlanCache
                                                : &planCache_} {
  // stats_ is a member, so the log vector's address is stable across reset()
  // (which assigns a fresh FlatDDStats into the same object).
  ewma_.attachLog(&stats_.ewmaLog);
  resetOrdering();
}

FlatDDSimulator::~FlatDDSimulator() {
  if (options_.sharedPlanCache != nullptr) {
    // Unpin this package's cached roots from the shared cache before the
    // package dies; other sessions' entries stay.
    options_.sharedPlanCache->clearPackage(ddSim_.package());
  }
}

void FlatDDSimulator::reset() {
  if (options_.sharedPlanCache != nullptr) {
    // reset() recycles mNodes wholesale, so every plan keyed on this package
    // is about to go stale — drop them (other sessions' plans are untouched,
    // as are the shared stats).
    options_.sharedPlanCache->clearPackage(ddSim_.package());
  }
  ddSim_.reset();
  ewma_.reset();
  resetOrdering();
  flatPhase_ = false;
  v_.clear();
  w_ = {};  // reallocated only if an out-of-place DMAV needs it again
  planCache_.clear();
  planCache_.resetStats();
  stats_ = FlatDDStats{};
}

void FlatDDSimulator::setState(std::span<const Complex> amplitudes) {
  reset();
  ddSim_.setState(amplitudes);
}

void FlatDDSimulator::applyOperation(const qc::Operation& op) {
  if (!flatPhase_) {
    Stopwatch gate;
    ddSim_.applyOperation(mapOp(op));
    const std::size_t size = ddSim_.stateNodeCount();
    stats_.peakDDSize = std::max(stats_.peakDDSize, size);
    ++stats_.ddGates;
    bool trigger = ewma_.observe(size);
    if (obs::enabled()) {
      obs::counterEvent("dd.size", static_cast<double>(size));
      obs::counterEvent("ewma.value", ewma_.value());
    }
    if (options_.forceConversionAtGate) {
      trigger = stats_.ddGates >= *options_.forceConversionAtGate;
    }
    const double seconds = gate.seconds();
    stats_.ddPhaseSeconds += seconds;
    if (options_.recordPerGate) {
      stats_.perGate.push_back(
          PerGateRecord{stats_.ddGates - 1, true, seconds, size});
    }
    if (trigger && !tryReorder()) {
      convertToFlat(stats_.ddGates);
    }
    return;
  }
  auto& pkg = ddSim_.package();
  Stopwatch gateClock;
  const dd::mEdge gate = pkg.makeGateDD(mapOp(op));
  pkg.incRef(gate);
  applyDmav(gate);
  pkg.decRef(gate);
  pkg.garbageCollect();
  ++stats_.dmavGates;
  const double seconds = gateClock.seconds();
  stats_.dmavPhaseSeconds += seconds;
  if (options_.recordPerGate) {
    stats_.perGate.push_back(
        PerGateRecord{stats_.ddGates + stats_.dmavGates - 1, false, seconds,
                      0});
  }
}

void FlatDDSimulator::simulate(const qc::Circuit& circuit) {
  if (circuit.numQubits() != nQubits_) {
    throw std::invalid_argument("simulate: circuit qubit count mismatch");
  }
  const auto& ops = circuit.operations();
  std::size_t i = 0;

  // ---- Phase 1: DD-based simulation with the EWMA monitor ----------------
  Stopwatch ddPhase;
  for (; i < ops.size() && !flatPhase_; ++i) {
    Stopwatch gate;
    ddSim_.applyOperation(mapOp(ops[i]));
    const std::size_t size = ddSim_.stateNodeCount();
    stats_.peakDDSize = std::max(stats_.peakDDSize, size);
    ++stats_.ddGates;
    bool trigger = ewma_.observe(size);
    if (obs::enabled()) {
      obs::counterEvent("dd.size", static_cast<double>(size));
      obs::counterEvent("ewma.value", ewma_.value());
    }
    if (options_.forceConversionAtGate) {
      trigger = (i + 1 >= *options_.forceConversionAtGate);
    }
    if (options_.recordPerGate) {
      stats_.perGate.push_back(
          PerGateRecord{i, true, gate.seconds(), size});
    }
    if (trigger && i + 1 < ops.size() && !tryReorder()) {
      convertToFlat(i + 1);
    }
  }
  stats_.ddPhaseSeconds += ddPhase.seconds();
  if (!flatPhase_) {
    return;  // the whole circuit stayed regular (e.g. Adder, GHZ)
  }

  // ---- Fusion of the remaining gates (optional) ---------------------------
  auto& pkg = ddSim_.package();
  Stopwatch fusionClock;
  std::vector<dd::mEdge> gates;
  gates.reserve(ops.size() - i);
  for (std::size_t g = i; g < ops.size(); ++g) {
    const dd::mEdge m = pkg.makeGateDD(mapOp(ops[g]));
    pkg.incRef(m);
    gates.push_back(m);
  }
  if (options_.fusion == FusionMode::DmavAware) {
    gates = dmavAwareFusion(pkg, gates, options_.threads);
  } else if (options_.fusion == FusionMode::KOperations) {
    gates = kOperationsFusion(pkg, gates, options_.kOperations,
                              options_.threads);
  }
  stats_.fusionSeconds += fusionClock.seconds();

  // ---- Phase 2: DMAV --------------------------------------------------------
  Stopwatch dmavPhase;
  const bool fuseRuns = options_.fuseDiagonalRuns && options_.usePlanCache;
  for (std::size_t g = 0; g < gates.size();) {
    // Diagonal-run detection: extend over consecutive diagonal gate DDs and
    // collapse runs of >= 2 into one fused DiagRun sweep.
    std::size_t runEnd = g;
    if (fuseRuns) {
      while (runEnd < gates.size() && runEnd - g < kMaxDiagRunGates &&
             isDiagonalGateDD(gates[runEnd])) {
        ++runEnd;
      }
    }
    if (runEnd - g >= 2) {
      const std::size_t runLen = runEnd - g;
      Stopwatch runClock;
      applyDmavDiagRun(std::span<const dd::mEdge>{gates.data() + g, runLen});
      for (std::size_t r = g; r < runEnd; ++r) {
        pkg.decRef(gates[r]);
      }
      ++stats_.diagRuns;
      stats_.diagRunGates += runLen;
      stats_.dmavGates += runLen;
      if (options_.recordPerGate) {
        const double each = runClock.seconds() / static_cast<double>(runLen);
        for (std::size_t r = 0; r < runLen; ++r) {
          stats_.perGate.push_back(PerGateRecord{
              stats_.conversionGateIndex + stats_.dmavGates - runLen + r,
              false, each, 0});
        }
      }
      g = runEnd;
      continue;
    }
    Stopwatch gateClock;
    applyDmav(gates[g]);
    pkg.decRef(gates[g]);
    ++stats_.dmavGates;
    if (options_.recordPerGate) {
      stats_.perGate.push_back(
          PerGateRecord{stats_.conversionGateIndex + stats_.dmavGates - 1,
                        false, gateClock.seconds(), 0});
    }
    ++g;
  }
  pkg.garbageCollect(true);
  stats_.dmavPhaseSeconds += dmavPhase.seconds();
}

void FlatDDSimulator::convertToFlat(std::size_t gateIndex) {
  FDD_TIMED_SCOPE("conversion");
  // The decision instant: an "i" event in the trace marks exactly when the
  // representation switched (value = EWMA, value2 = threshold, aux = gate).
  obs::instantEvent("ewma.convert", ewma_.value(),
                    ewma_.epsilon() * ewma_.value(), gateIndex);
  Stopwatch clock;
  v_.resize(Index{1} << nQubits_);
  ddToArrayParallel(ddSim_.state(), nQubits_, v_, options_.threads);
  ddSim_.releaseState();  // the irregular state DD is no longer needed
  flatPhase_ = true;
  stats_.converted = true;
  stats_.conversionGateIndex = gateIndex;
  stats_.conversionSeconds = clock.seconds();
}

void FlatDDSimulator::applyDmavDiagRun(std::span<const dd::mEdge> run) {
  const Index dim = Index{1} << nQubits_;
  const unsigned threads =
      dim < options_.parallelThresholdDim ? 1 : options_.threads;
  bool wasHit = false;
  const std::shared_ptr<const DmavPlan> plan = cache_->getSharedRun(
      ddSim_.package(), run, nQubits_, threads, &wasHit);
  if (wasHit) {
    ++stats_.planCacheHits;
  } else {
    ++stats_.planCacheMisses;
    ++stats_.planCompiles;
    stats_.planCompileSeconds += plan->compileSeconds;
  }
  // One sweep regardless of the run length: charge a single pass of 2^n
  // MACs (the pointwise product) split across the replay threads.
  stats_.dmavModelCost +=
      static_cast<fp>(dim) / static_cast<fp>(plan->threads);
  Stopwatch replayClock;
  replayPlanInPlace(*plan, v_);
  stats_.dmavReplaySeconds += replayClock.seconds();
}

std::span<Complex> FlatDDSimulator::scratch() {
  w_.resize(v_.size());
  return w_;
}

void FlatDDSimulator::applyDmav(const dd::mEdge& gate) {
  const Index dim = Index{1} << nQubits_;
  const unsigned threads =
      dim < options_.parallelThresholdDim ? 1 : options_.threads;
  // A gate that qualifies for the single-pass DenseBlock lowering always
  // beats the cached (buffer-reduce) variant: skip the Eq. 5/6 choice and
  // force row mode, where compileDmavPlan picks the dense shape from this
  // same probe. forceCaching is an ablation flag and keeps overriding this.
  std::optional<DenseGateInfo> dense;
  if (options_.usePlanCache && !options_.forceCaching) {
    dense = denseBlockProbe(gate, nQubits_);
  }
  // C1 and C2 once per gate: they pick the variant and are charged as
  // min(C1, C2), the cost dmavCost reports.
  const fp c1 = costNoCache(gate, clampDmavThreads(nQubits_, threads));
  const fp c2 = costWithCache(gate, nQubits_, threads, simd::lanes());
  const bool useCache = options_.forceCaching ||
                        (!dense && options_.useCostModel && c2 < c1);
  stats_.dmavModelCost += c1 < c2 ? c1 : c2;
  if (options_.usePlanCache) {
    const PlanMode mode = useCache ? PlanMode::Cached : PlanMode::Row;
    // getShared keeps the plan alive even if a concurrent session's miss
    // evicts this entry from a shared cache mid-replay. Stats are tracked
    // per simulator via wasHit — shared-cache totals aggregate all sessions
    // and would misattribute.
    bool wasHit = false;
    const std::shared_ptr<const DmavPlan> plan = cache_->getShared(
        ddSim_.package(), gate, nQubits_, threads, mode, &wasHit, &dense);
    if (wasHit) {
      ++stats_.planCacheHits;
    } else {
      ++stats_.planCacheMisses;
      ++stats_.planCompiles;
      stats_.planCompileSeconds += plan->compileSeconds;
    }
    if (plan->denseK != 0) {
      ++stats_.denseBlockGates;
    }
    Stopwatch replayClock;
    if (plan->replaysInPlace()) {
      replayPlanInPlace(*plan, v_);
      ++stats_.inPlaceGates;
      stats_.dmavReplaySeconds += replayClock.seconds();
      return;
    }
    if (useCache) {
      const DmavCacheStats s =
          replayPlanCached(*plan, v_, scratch(), workspace_);
      ++stats_.cachedGates;
      stats_.cacheHits += s.cacheHits;
    } else {
      replayPlan(*plan, v_, scratch());
    }
    stats_.dmavReplaySeconds += replayClock.seconds();
  } else if (useCache) {
    const DmavCacheStats s = dmavCachedRecursive(gate, nQubits_, v_,
                                                 scratch(), threads,
                                                 workspace_);
    ++stats_.cachedGates;
    stats_.cacheHits += s.cacheHits;
  } else {
    dmavRecursive(gate, nQubits_, v_, scratch(), threads);
  }
  std::swap(v_, w_);
}

void FlatDDSimulator::resetOrdering() {
  qubitAtLevel_.resize(static_cast<std::size_t>(nQubits_));
  levelOfQubit_.resize(static_cast<std::size_t>(nQubits_));
  for (Qubit q = 0; q < nQubits_; ++q) {
    qubitAtLevel_[static_cast<std::size_t>(q)] = q;
    levelOfQubit_[static_cast<std::size_t>(q)] = q;
  }
  reordered_ = false;
}

qc::Operation FlatDDSimulator::mapOp(const qc::Operation& op) const {
  if (!reordered_) {
    return op;
  }
  qc::Operation mapped = op;
  mapped.target = levelOfQubit_[static_cast<std::size_t>(op.target)];
  for (Qubit& c : mapped.controls) {
    c = levelOfQubit_[static_cast<std::size_t>(c)];
  }
  std::sort(mapped.controls.begin(), mapped.controls.end());
  return mapped;
}

Index FlatDDSimulator::mapIndex(Index logical) const noexcept {
  if (!reordered_) {
    return logical;
  }
  Index internal = 0;
  for (std::size_t q = 0; q < levelOfQubit_.size(); ++q) {
    internal |= ((logical >> q) & 1) << levelOfQubit_[q];
  }
  return internal;
}

bool FlatDDSimulator::tryReorder() {
  // forceConversionAtGate is an ablation contract: the caller pinned the
  // conversion gate, so the trigger must not be deflected by a reorder.
  if (!options_.ddReorder || options_.forceConversionAtGate ||
      stats_.reorderCount >= options_.maxReorders ||
      ddSim_.stateNodeCount() < options_.reorderMinNodes) {
    return false;
  }
  auto& pkg = ddSim_.package();
  Stopwatch clock;
  const dd::ReorderResult r = dd::reorderGreedy(pkg, ddSim_.state());
  stats_.reorderSeconds += clock.seconds();
  if (r.swaps.empty()) {
    pkg.garbageCollect();  // rejected trial nodes are garbage now
    return false;
  }
  ddSim_.replaceState(r.state);
  for (const Qubit lower : r.swaps) {
    std::swap(qubitAtLevel_[static_cast<std::size_t>(lower)],
              qubitAtLevel_[static_cast<std::size_t>(lower) + 1]);
  }
  for (std::size_t l = 0; l < qubitAtLevel_.size(); ++l) {
    levelOfQubit_[static_cast<std::size_t>(qubitAtLevel_[l])] =
        static_cast<Qubit>(l);
  }
  reordered_ = true;
  // Plans compiled against the old level labeling are meaningless now.
  pkg.bumpOrderingEpoch();
  ++stats_.reorderCount;
  stats_.reorderSwaps += r.swaps.size();
  if (stats_.ddSizePreReorder == 0) {
    stats_.ddSizePreReorder = r.nodesBefore;
  }
  stats_.ddSizePostReorder = r.nodesAfter;
  if (obs::enabled()) {
    obs::counterEvent("dd.reorder.swaps",
                      static_cast<double>(r.swaps.size()));
    obs::Registry::instance()
        .gauge("dd.size.pre")
        .set(static_cast<double>(r.nodesBefore));
    obs::Registry::instance()
        .gauge("dd.size.post")
        .set(static_cast<double>(r.nodesAfter));
    obs::instantEvent("dd.reorder", static_cast<double>(r.nodesBefore),
                      static_cast<double>(r.nodesAfter), r.swaps.size());
  }
  const bool keep = static_cast<fp>(r.nodesAfter) <=
                    options_.reorderKeepRatio * static_cast<fp>(r.nodesBefore);
  if (keep) {
    // The DD phase continues on a much smaller DD: restart the monitor so
    // stale pre-reorder growth history can't re-fire the trigger instantly.
    ewma_.reset();
  }
  return keep;
}

Complex FlatDDSimulator::amplitude(Index i) const {
  const Index j = mapIndex(i);
  if (flatPhase_) {
    return v_[j];
  }
  return ddSim_.amplitude(j);
}

AlignedVector<Complex> FlatDDSimulator::stateVector() const {
  AlignedVector<Complex> internal =
      flatPhase_ ? v_
                 : ddToArrayParallel(ddSim_.state(), nQubits_,
                                     options_.threads);
  if (!reordered_) {
    return internal;
  }
  return permuteToLogical(internal, levelOfQubit_, options_.threads);
}

std::vector<Index> FlatDDSimulator::sample(std::size_t shots,
                                           Xoshiro256& rng) const {
  // Both paths sample internal-order indices; unmap each outcome's bits
  // back to logical labels when a reorder happened.
  const auto unmap = [this](Index internal) {
    if (!reordered_) {
      return internal;
    }
    Index logical = 0;
    for (std::size_t l = 0; l < qubitAtLevel_.size(); ++l) {
      logical |= ((internal >> l) & 1) << qubitAtLevel_[l];
    }
    return logical;
  };
  if (!flatPhase_) {
    std::vector<Index> out =
        ddSim_.package().sample(ddSim_.state(), shots, rng);
    for (Index& s : out) {
      s = unmap(s);
    }
    return out;
  }
  // Cumulative distribution + binary search: O(2^n) setup, O(log 2^n)/shot.
  std::vector<fp> cdf(v_.size());
  fp acc = 0;
  for (Index i = 0; i < v_.size(); ++i) {
    acc += norm2(v_[i]);
    cdf[i] = acc;
  }
  std::vector<Index> out;
  out.reserve(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const fp r = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
    out.push_back(unmap(static_cast<Index>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) -
                                     1))));
  }
  return out;
}

std::string FlatDDStats::perGateCsv() const {
  std::string csv = "gate,phase,seconds,dd_size\n";
  for (const auto& rec : perGate) {
    csv += std::to_string(rec.gateIndex);
    csv += rec.inDDPhase ? ",dd," : ",dmav,";
    csv += std::to_string(rec.seconds);
    csv += ',';
    csv += std::to_string(rec.ddSize);
    csv += '\n';
  }
  return csv;
}

std::size_t FlatDDSimulator::memoryBytes() const {
  std::size_t bytes = ddSim_.package().stats().memoryBytes;
  bytes += (v_.size() + w_.size()) * sizeof(Complex);
  bytes += workspace_.memoryBytes();
  bytes += planCache_.memoryBytes();
  return bytes;
}

}  // namespace fdd::flat
