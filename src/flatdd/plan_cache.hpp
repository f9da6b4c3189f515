#pragma once
// Bounded LRU cache of compiled DmavPlans (see dmav_plan.hpp). Compiling a
// plan is linear in the gate DD (passive levels lower to combs), which
// measures at about one replay or less for single gates, so a miss is
// cheap and the LRU only saves that one compile on repeats. Repeats are
// common: deep circuits apply the same few gate DDs (canonical QMDDs dedupe
// repeated gates structurally) hundreds of times.
//
// Key identity and node recycling: a plan is keyed by the gate DD's root
// node pointer plus its edge weight (canonical ComplexTable weights are
// bit-exact comparable), the qubit count, thread count, plan mode, and the
// ident-fast-path flag the compiler baked in. Raw node pointers are only
// meaningful while the node is alive — the package's NodePool recycles
// addresses of collected nodes — so the cache *pins* every cached root with
// Package::incRef on insertion (and decRef on eviction). Pinned nodes are
// ineligible for collection, which keeps pointer keys unambiguous whatever
// else the package collects, so hits do not consult
// Package::mNodeGeneration(). A package reset recycles nodes wholesale
// despite pins, so owners call clearPackage() first (FlatDDSimulator::reset
// does). Hits do check the package's ordering epoch: a dynamic reorder
// relabels levels, and an entry compiled before it is dropped and
// recompiled instead of replayed.
//
// The compile step is compileGatePlan: row-mode single-target gates (every
// unfused gate) become in-place plans, everything else compileDmavPlan.
//
// Sharing across sessions: one PlanCache may be shared by many simulator
// instances (the service's SessionManager shares one capacity budget across
// all sessions). All members are mutex-guarded, plans are handed out as
// shared_ptr so an eviction racing a replay cannot free a live plan, and
// unpinning a root of a *different* package is deferred: the evicting
// session must not mutate another session's reference counts concurrently
// with that session's own DD operations, so the (root, weight) pin is
// parked per package and released by the next getShared()/clearPackage()
// call made for that package — which the owning session's (serialized) jobs
// issue. Call clearPackage() before a package dies or resets; a session that
// stops calling get keeps at most its own evicted pins parked until then.
//
// Cross-package plan reuse is structural future work: keys embed the owning
// package, so two sessions applying the same gate still compile twice —
// what sharing buys today is one LRU budget, one stats stream, and safe
// concurrent access.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "flatdd/dmav_plan.hpp"

namespace fdd::flat {

struct PlanCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t compiles = 0;    // misses that led to an insert
  std::size_t evictions = 0;
  std::size_t staleHits = 0;   // ordering-epoch rejections (recompiled)
  double compileSeconds = 0;   // total time spent compiling plans
};

class PlanCache {
 public:
  /// `capacity` = max number of live plans (0 disables caching entirely:
  /// get() always compiles a throwaway plan).
  explicit PlanCache(std::size_t capacity = 64) : capacity_(capacity) {}
  ~PlanCache() { clear(); }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the plan for gate `m` at (nQubits, threads, mode), compiling
  /// and caching it on a miss. The shared_ptr keeps the plan alive across
  /// concurrent evictions. `pkg` must own `m`'s nodes, and all calls for
  /// one package must come from the thread currently serialized on that
  /// package (the owning session's job). `wasHit`, when non-null, receives
  /// whether this call was served from cache — callers that keep their own
  /// per-session stats use it instead of the shared stats() totals.
  /// `dense`, when non-null, is the caller's denseBlockProbe(m, nQubits)
  /// result, reused by a row-mode compile instead of probing again.
  [[nodiscard]] std::shared_ptr<const DmavPlan> getShared(
      dd::Package& pkg, const dd::mEdge& m, Qubit nQubits, unsigned threads,
      PlanMode mode, bool* wasHit = nullptr,
      const std::optional<DenseGateInfo>* dense = nullptr);

  /// Returns the fused DiagRun plan for a run of consecutive diagonal gates
  /// (compileDiagRunPlan on a miss). The key embeds every gate's (root,
  /// weight) signature, and *all* run roots are pinned while the plan is
  /// cached, so the combined phase table can be replayed whenever the exact
  /// same gate sequence recurs (QFT ladders, layered rotation circuits).
  /// Same ownership contract as getShared(); `run` must be non-empty.
  [[nodiscard]] std::shared_ptr<const DmavPlan> getSharedRun(
      dd::Package& pkg, std::span<const dd::mEdge> run, Qubit nQubits,
      unsigned threads, bool* wasHit = nullptr);

  /// Single-owner convenience: getShared() with the reference kept alive
  /// until the next get()/clear() on this thread-unsafe-to-alias handle.
  /// Prefer getShared() whenever the cache is shared.
  const DmavPlan& get(dd::Package& pkg, const dd::mEdge& m, Qubit nQubits,
                      unsigned threads, PlanMode mode);

  /// Drops (and unpins) every entry belonging to `pkg`, including parked
  /// deferred unpins. Must be called from the thread serialized on `pkg`
  /// (its session's job or teardown) before the package resets or dies.
  void clearPackage(dd::Package& pkg);

  /// Drops all plans and unpins their roots across every package. Requires
  /// external quiescence (no concurrent session touching any referenced
  /// package) — single-owner simulators and tests only.
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] PlanCacheStats stats() const;
  void resetStats();

  /// Total heap footprint of the cached plans.
  [[nodiscard]] std::size_t memoryBytes() const;

 private:
  /// Signature of one extra gate of a fused run (gates 2..k).
  struct RunGate {
    const dd::mNode* n = nullptr;
    std::uint64_t wBits[2] = {0, 0};

    bool operator==(const RunGate&) const = default;
  };
  struct Key {
    const dd::Package* pkg = nullptr;
    const dd::mNode* root = nullptr;
    std::uint64_t weightBits[2] = {0, 0};  // bit-exact canonical weight
    Qubit nQubits = 0;
    unsigned threads = 0;
    PlanMode mode = PlanMode::Row;
    bool identFast = true;
    std::vector<RunGate> run;  // gates 2..k of a fused run (else empty)

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const DmavPlan> plan;
    dd::Package* pkg = nullptr;  // for decRef on eviction
  };
  /// A root whose decRef is parked until its package's owner shows up.
  struct ParkedPin {
    dd::Package* pkg = nullptr;
    const dd::mNode* root = nullptr;
    Complex weight{};
  };
  using LruList = std::list<Entry>;

  std::shared_ptr<const DmavPlan> getCommon(
      dd::Package& pkg, Key key, bool* wasHit,
      const std::function<DmavPlan()>& compile);
  void evictOldestLocked(const dd::Package* caller);
  void unpinOrPark(Entry& victim, const dd::Package* caller);
  void drainParkedLocked(const dd::Package* pkg);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  std::unordered_map<const dd::Package*, std::vector<ParkedPin>> parked_;
  std::shared_ptr<const DmavPlan> holder_;  // keeps get()'s reference alive
  PlanCacheStats stats_;
};

}  // namespace fdd::flat
