// Service core: job queue scheduling (priority across sessions, FIFO within
// one, cancellation, deadlines), session semantics (seeded sampling,
// checkpoint/restore, incremental apply), the shared plan cache's
// cross-package contract, concurrent sessions vs sequential replay, the
// line-delimited JSON protocol, and the observability surface (request-id
// propagation, timing fields, queue gauges, watchdog, slow log, admin
// listener).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "dd/package.hpp"
#include "engine/backend_factory.hpp"
#include "flatdd/flatdd_simulator.hpp"
#include "flatdd/plan_cache.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/admin.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/session_manager.hpp"

namespace fdd::svc {
namespace {

using namespace std::chrono_literals;

JobOptions withPriority(int priority) {
  JobOptions opts;
  opts.priority = priority;
  return opts;
}

JobOptions withDeadline(par::CancelToken::Clock::time_point deadline) {
  JobOptions opts;
  opts.deadline = deadline;
  return opts;
}

ServiceConfig withWorkers(unsigned workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  return cfg;
}

/// Occupies a queue worker until release() — used to stage scheduling
/// scenarios deterministically with a single-worker queue.
class Blocker {
 public:
  explicit Blocker(JobQueue& queue) {
    handle_ = queue.submit([this](const par::CancelToken&) {
      started_.store(true);
      while (!release_.load()) {
        std::this_thread::sleep_for(1ms);
      }
    });
    while (!started_.load()) {
      std::this_thread::sleep_for(1ms);
    }
  }
  void release() { release_.store(true); }
  void join() {
    release();
    handle_->wait();
  }

 private:
  std::atomic<bool> started_{false};
  std::atomic<bool> release_{false};
  JobHandle handle_;
};

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(JobQueue, RunsJobsToDone) {
  JobQueue queue{2};
  std::atomic<int> ran{0};
  std::vector<JobHandle> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(
        queue.submit([&](const par::CancelToken&) { ++ran; }));
  }
  for (const JobHandle& h : handles) {
    h->wait();
    EXPECT_EQ(h->state(), JobState::Done);
    EXPECT_GT(h->latencySeconds(), 0.0);
  }
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(JobQueue, PriorityOrdersRunnableJobs) {
  JobQueue queue{1};
  Blocker blocker{queue};
  std::mutex mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&, tag](const par::CancelToken&) {
      const std::lock_guard lock{mutex};
      order.push_back(tag);
    };
  };
  const JobHandle low = queue.submit(record(0), withPriority(0));
  const JobHandle mid = queue.submit(record(1), withPriority(3));
  const JobHandle high = queue.submit(record(2), withPriority(9));
  EXPECT_EQ(queue.depth(), 3u);
  blocker.join();
  low->wait();
  mid->wait();
  high->wait();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(JobQueue, FifoWithinOrderKeyBeatsPriority) {
  JobQueue queue{1};
  Blocker blocker{queue};
  std::mutex mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&, tag](const par::CancelToken&) {
      const std::lock_guard lock{mutex};
      order.push_back(tag);
    };
  };
  // Same key: the later, higher-priority job must still run second.
  const JobHandle first =
      queue.submit(record(0), withPriority(0), /*orderKey=*/7);
  const JobHandle second =
      queue.submit(record(1), withPriority(100), /*orderKey=*/7);
  blocker.join();
  first->wait();
  second->wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(JobQueue, KeyedJobsInterleaveAcrossKeysUnderPriority) {
  JobQueue queue{1};
  Blocker blocker{queue};
  std::mutex mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&, tag](const par::CancelToken&) {
      const std::lock_guard lock{mutex};
      order.push_back(tag);
    };
  };
  std::vector<JobHandle> handles;
  handles.push_back(
      queue.submit(record(10), withPriority(1), 1));  // key 1 #0
  handles.push_back(
      queue.submit(record(11), withPriority(1), 1));  // key 1 #1
  handles.push_back(
      queue.submit(record(20), withPriority(5), 2));  // key 2 #0
  blocker.join();
  for (const JobHandle& h : handles) {
    h->wait();
  }
  // Key 2's head outranks key 1's head; key 1 stays internally ordered.
  EXPECT_EQ(order, (std::vector<int>{20, 10, 11}));
}

TEST(JobQueue, CancelQueuedJobNeverRuns) {
  JobQueue queue{1};
  Blocker blocker{queue};
  std::atomic<bool> ran{false};
  const JobHandle job =
      queue.submit([&](const par::CancelToken&) { ran.store(true); });
  EXPECT_TRUE(job->cancel());
  blocker.join();
  job->wait();
  EXPECT_EQ(job->state(), JobState::Cancelled);
  EXPECT_FALSE(ran.load());
}

TEST(JobQueue, CancelRunningJobCooperatively) {
  JobQueue queue{1};
  std::atomic<bool> inBody{false};
  const JobHandle job = queue.submit([&](const par::CancelToken& token) {
    inBody.store(true);
    while (!token.cancelled()) {
      std::this_thread::sleep_for(1ms);
    }
    throw CancelledError{};
  });
  while (!inBody.load()) {
    std::this_thread::sleep_for(1ms);
  }
  job->cancel();
  job->wait();
  EXPECT_EQ(job->state(), JobState::Cancelled);
}

TEST(JobQueue, DeadlineExpiresQueuedJob) {
  JobQueue queue{1};
  Blocker blocker{queue};
  std::atomic<bool> ran{false};
  const JobHandle job = queue.submit(
      [&](const par::CancelToken&) { ran.store(true); },
      withDeadline(par::CancelToken::Clock::now() + 5ms));
  std::this_thread::sleep_for(20ms);
  blocker.join();
  job->wait();
  EXPECT_EQ(job->state(), JobState::Expired);
  EXPECT_FALSE(ran.load());
}

TEST(JobQueue, DeadlineExpiresRunningJob) {
  JobQueue queue{1};
  const JobHandle job = queue.submit(
      [&](const par::CancelToken& token) {
        while (!token.cancelled()) {
          std::this_thread::sleep_for(1ms);
        }
        throw CancelledError{};
      },
      withDeadline(par::CancelToken::Clock::now() + 20ms));
  job->wait();
  EXPECT_EQ(job->state(), JobState::Expired);
}

TEST(JobQueue, FailedJobCarriesError) {
  JobQueue queue{1};
  const JobHandle job = queue.submit([](const par::CancelToken&) {
    throw std::runtime_error("boom");
  });
  job->wait();
  EXPECT_EQ(job->state(), JobState::Failed);
  EXPECT_EQ(job->error(), "boom");
}

TEST(JobQueue, ShutdownCancelsQueuedJobs) {
  JobQueue queue{1};
  Blocker blocker{queue};
  const JobHandle queued = queue.submit([](const par::CancelToken&) {});
  const JobHandle stashed =
      queue.submit([](const par::CancelToken&) {}, {}, /*orderKey=*/3);
  const JobHandle stashed2 =
      queue.submit([](const par::CancelToken&) {}, {}, /*orderKey=*/3);
  blocker.release();
  queue.shutdown();
  EXPECT_TRUE(isTerminal(queued->state()));
  EXPECT_TRUE(isTerminal(stashed->state()));
  EXPECT_TRUE(isTerminal(stashed2->state()));
  EXPECT_THROW(queue.submit([](const par::CancelToken&) {}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// BackendFactory thread safety
// ---------------------------------------------------------------------------

TEST(BackendFactoryConcurrency, ConcurrentRegisterAndCreate) {
  auto& factory = engine::BackendFactory::instance();
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int i = 0; i < 25; ++i) {
          factory.registerBackend(
              "svc-test-" + std::to_string(t) + "-" + std::to_string(i),
              "test backend",
              [](Qubit n, const engine::EngineOptions& o) {
                return engine::BackendFactory::instance().create("dd", n, o);
              });
          const auto backend = factory.create("dd", 3);
          if (backend == nullptr || factory.registeredNames().empty() ||
              !factory.contains("flatdd")) {
            failed.store(true);
          }
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(factory.contains("svc-test-0-0"));
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

SessionConfig makeConfig(Qubit qubits, std::uint64_t seed,
                         const std::string& backend = "flatdd") {
  SessionConfig cfg;
  cfg.backend = backend;
  cfg.qubits = qubits;
  cfg.seed = seed;
  return cfg;
}

TEST(SvcSession, SameSeedSameGatesSameSamples) {
  const qc::Circuit circuit = circuits::randomUniversal(6, 80, 11);
  Session a{1, makeConfig(6, 42), nullptr};
  Session b{2, makeConfig(6, 42), nullptr};
  a.apply(circuit);
  b.apply(circuit);
  EXPECT_EQ(a.sample(64), b.sample(64));
  // Further requests continue the identical stream.
  EXPECT_EQ(a.sample(64), b.sample(64));

  Session c{3, makeConfig(6, 43), nullptr};
  c.apply(circuit);
  EXPECT_NE(a.sample(256), c.sample(256));  // different seed, same state
}

TEST(SvcSession, SeedLandsInReport) {
  Session s{1, makeConfig(4, 0xdeadbeefcafef00dULL), nullptr};
  const engine::RunReport report = s.report();
  EXPECT_EQ(report.seed, 0xdeadbeefcafef00dULL);
  // And survives the JSON round trip (decimal-string serialization).
  const engine::RunReport back =
      engine::RunReport::fromJson(report.toJson());
  EXPECT_EQ(back.seed, 0xdeadbeefcafef00dULL);
}

TEST(SvcSession, CheckpointRestoreResumesExactTrajectory) {
  const qc::Circuit first = circuits::randomUniversal(6, 60, 21);
  const qc::Circuit second = circuits::randomUniversal(6, 60, 22);
  Session s{1, makeConfig(6, 7), nullptr};
  s.apply(first);
  const std::uint64_t cp = s.checkpoint();
  EXPECT_EQ(s.gatesApplied(), 60u);

  s.apply(second);
  EXPECT_EQ(s.gatesApplied(), 120u);
  const std::vector<Index> run1 = s.sample(128);
  const Complex amp1 = s.amplitude(5);

  s.restore(cp);
  EXPECT_EQ(s.gatesApplied(), 60u);
  s.apply(second);
  const std::vector<Index> run2 = s.sample(128);
  EXPECT_EQ(run1, run2);  // state AND rng stream were rewound
  EXPECT_EQ(s.amplitude(5), amp1);

  // Restoring twice is allowed (checkpoints are not consumed).
  s.restore(cp);
  EXPECT_EQ(s.gatesApplied(), 60u);
  EXPECT_THROW(s.restore(999), std::invalid_argument);
}

TEST(SvcSession, IncrementalApplyMatchesOneShot) {
  const qc::Circuit circuit = circuits::randomUniversal(7, 180, 31);
  Session incremental{1, makeConfig(7, 5), nullptr};
  // Apply in 3 uneven chunks.
  const auto& ops = circuit.operations();
  const std::size_t cuts[] = {50, 130, ops.size()};
  std::size_t begin = 0;
  for (const std::size_t end : cuts) {
    qc::Circuit chunk{7, "chunk"};
    for (std::size_t i = begin; i < end; ++i) {
      chunk.append(ops[i]);
    }
    incremental.apply(chunk);
    begin = end;
  }

  Session oneShot{2, makeConfig(7, 5), nullptr};
  oneShot.apply(circuit);
  for (const Index i : {Index{0}, Index{1}, Index{77}, Index{127}}) {
    const Complex a = incremental.amplitude(i);
    const Complex b = oneShot.amplitude(i);
    EXPECT_NEAR(a.real(), b.real(), 1e-9) << i;
    EXPECT_NEAR(a.imag(), b.imag(), 1e-9) << i;
  }
  EXPECT_EQ(incremental.sample(64), oneShot.sample(64));
}

TEST(SvcSession, ChunkedAppliesMatchOneShotInTheFlatPhase) {
  // Most gates replay in place after the conversion at gate 4; uneven
  // chunks must give the one-shot amplitudes.
  constexpr Qubit kQubits = 12;
  const qc::Circuit circuit = circuits::randomUniversal(kQubits, 400, 53);
  SessionConfig cfg = makeConfig(kQubits, 9);
  cfg.engine.forceConversionAtGate = 4;
  Session chunked{1, cfg, nullptr};
  const auto& ops = circuit.operations();
  std::size_t begin = 0;
  for (const std::size_t end : {std::size_t{40}, std::size_t{41},
                                std::size_t{170}, std::size_t{333},
                                ops.size()}) {
    qc::Circuit chunk{kQubits, "chunk"};
    for (std::size_t i = begin; i < end; ++i) {
      chunk.append(ops[i]);
    }
    chunked.apply(chunk);
    begin = end;
  }
  Session oneShot{2, cfg, nullptr};
  oneShot.apply(circuit);
  const engine::RunReport report = chunked.report();
  ASSERT_TRUE(report.converted);
  EXPECT_GT(report.inPlaceGates, 0u);
  for (Index i = 0; i < (Index{1} << kQubits); ++i) {
    const Complex a = chunked.amplitude(i);
    const Complex b = oneShot.amplitude(i);
    ASSERT_NEAR(a.real(), b.real(), 1e-12) << i;
    ASSERT_NEAR(a.imag(), b.imag(), 1e-12) << i;
  }
}

TEST(SvcSession, PhaseTimersAccumulateAcrossApplies) {
  // Each apply() runs as several 64-gate engine slices; every slice must add
  // to the phase timers rather than overwrite them.
  constexpr Qubit kQubits = 10;
  const qc::Circuit circuit = circuits::randomUniversal(kQubits, 600, 41);
  Session s{1, makeConfig(kQubits, 3), nullptr};
  const auto& ops = circuit.operations();
  engine::RunReport prev = s.report();
  for (std::size_t begin = 0; begin < ops.size(); begin += 100) {
    qc::Circuit chunk{kQubits, "chunk"};
    for (std::size_t i = begin; i < std::min(begin + 100, ops.size()); ++i) {
      chunk.append(ops[i]);
    }
    s.apply(chunk);
    const engine::RunReport now = s.report();
    EXPECT_GE(now.ddPhaseSeconds, prev.ddPhaseSeconds) << "after " << begin;
    EXPECT_GE(now.fusionSeconds, prev.fusionSeconds) << "after " << begin;
    EXPECT_GE(now.dmavPhaseSeconds, prev.dmavPhaseSeconds)
        << "after " << begin;
    prev = now;
  }
  ASSERT_TRUE(prev.converted);
  ASSERT_GT(prev.planCompiles, 0u);
  // Plans compile inside the DMAV loop, so its timer covers them.
  EXPECT_GE(prev.dmavPhaseSeconds, prev.planCompileSeconds);
}

TEST(SvcSession, ApplyChecksQubitCount) {
  Session s{1, makeConfig(4, 0), nullptr};
  EXPECT_THROW(s.apply(qc::Circuit{5, "wrong"}), std::invalid_argument);
}

TEST(SvcSession, CancelledApplyThrows) {
  Session s{1, makeConfig(5, 0), nullptr};
  par::CancelSource source;
  source.requestCancel();
  const qc::Circuit circuit = circuits::randomUniversal(5, 10, 3);
  EXPECT_THROW(s.apply(circuit, source.token()), CancelledError);
}

// ---------------------------------------------------------------------------
// Shared PlanCache
// ---------------------------------------------------------------------------

TEST(SharedPlanCache, ClearPackageDropsOnlyThatPackage) {
  const Qubit n = 5;
  dd::Package p1{n};
  dd::Package p2{n};
  flat::PlanCache cache{8};
  const dd::mEdge g1 = p1.makeGateDD({qc::GateKind::RZ, 0, {}, {0.3}});
  const dd::mEdge g2 = p2.makeGateDD({qc::GateKind::RZ, 0, {}, {0.3}});
  p1.incRef(g1);
  p2.incRef(g2);
  (void)cache.getShared(p1, g1, n, 1, flat::PlanMode::Row);
  (void)cache.getShared(p2, g2, n, 1, flat::PlanMode::Row);
  EXPECT_EQ(cache.size(), 2u);  // keys embed the package: no false sharing

  cache.clearPackage(p1);
  EXPECT_EQ(cache.size(), 1u);
  bool hit = false;
  (void)cache.getShared(p2, g2, n, 1, flat::PlanMode::Row, &hit);
  EXPECT_TRUE(hit);  // p2's entry untouched
  cache.clearPackage(p2);
  p1.decRef(g1);
  p2.decRef(g2);
}

TEST(SharedPlanCache, UnrelatedCollectionKeepsPinnedPlanAHit) {
  const Qubit n = 5;
  dd::Package p{n};
  flat::PlanCache cache{8};
  const qc::Operation op{qc::GateKind::RY, 1, {}, {0.4}};
  const dd::mEdge g = p.makeGateDD(op);
  p.incRef(g);
  (void)cache.getShared(p, g, n, 1, flat::PlanMode::Row);

  // Collect unrelated matrix nodes. The cached root is pinned, so it was
  // not recycled and its plan is still the plan of this gate.
  (void)p.makeGateDD({qc::GateKind::U3, 3, {}, {0.1, 0.2, 0.3}});
  const std::uint64_t generation = p.mNodeGeneration();
  p.garbageCollect(true);
  ASSERT_GT(p.mNodeGeneration(), generation);

  bool hit = false;
  const auto plan = cache.getShared(p, g, n, 1, flat::PlanMode::Row, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().staleHits, 0u);
  EXPECT_EQ(cache.stats().compiles, 1u);
  const auto v = test::randomState(n, 3);
  AlignedVector<Complex> in(v.begin(), v.end());
  AlignedVector<Complex> out(v.size());
  flat::replayPlan(*plan, in, out);
  EXPECT_STATE_NEAR(out, test::denseApply(test::denseOperator(op, n), v),
                    1e-12);
  cache.clearPackage(p);
  p.decRef(g);
}

TEST(SharedPlanCache, SessionKeepsRecurringPlansAcrossEvictions) {
  // Each apply is one engine slice: 46 recurring gates plus one new gate,
  // under a 48-entry cache. From the third slice on, each new gate evicts
  // the oldest one-off plan, and the slice-end GC collects its root. The
  // recurring plans' roots stay pinned and intact, so every slice after
  // the first two must hit all 46 of them and recompile none.
  constexpr Qubit kQubits = 16;
  flat::PlanCache cache{48};
  SessionConfig cfg = makeConfig(kQubits, 5);
  cfg.engine.threads = 1;
  cfg.engine.forceConversionAtGate = 1;
  Session s{1, cfg, &cache};
  std::vector<qc::Operation> recurring;
  for (Qubit q = 0; q < kQubits; ++q) {
    recurring.push_back({qc::GateKind::RX, q, {}, {0.1 * (q + 1)}});
  }
  for (Qubit q = 0; q + 1 < kQubits; ++q) {
    recurring.push_back({qc::GateKind::X, q + 1, {q}, {}});
    recurring.push_back({qc::GateKind::RY, q, {}, {0.2 * (q + 1)}});
  }
  ASSERT_EQ(recurring.size(), 46u);

  std::size_t hitsBefore = 0;
  for (int slice = 0; slice < 8; ++slice) {
    qc::Circuit chunk{kQubits, "slice"};
    for (const auto& op : recurring) {
      chunk.append(op);
    }
    chunk.append({qc::GateKind::RY, kQubits - 1, {}, {0.05 + 0.01 * slice}});
    ASSERT_LE(chunk.numGates(), Session::kCancelCheckGates);
    s.apply(chunk);
    const std::size_t hits = s.report().planCacheHits;
    if (slice >= 2) {
      EXPECT_EQ(hits - hitsBefore, recurring.size()) << "slice " << slice;
    }
    hitsBefore = hits;
  }
  EXPECT_GE(cache.stats().evictions, 6u);
  EXPECT_EQ(cache.stats().staleHits, 0u);
}

TEST(SharedPlanCache, HeldPlanSurvivesEviction) {
  const Qubit n = 4;
  dd::Package p{n};
  flat::PlanCache cache{1};
  const dd::mEdge a = p.makeGateDD({qc::GateKind::RZ, 0, {}, {0.1}});
  const dd::mEdge b = p.makeGateDD({qc::GateKind::RZ, 1, {}, {0.2}});
  p.incRef(a);
  p.incRef(b);
  const auto planA = cache.getShared(p, a, n, 1, flat::PlanMode::Row);
  const auto planB = cache.getShared(p, b, n, 1, flat::PlanMode::Row);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
  // planA was evicted from the cache but our shared_ptr keeps it alive and
  // replayable (plans are self-contained op streams).
  AlignedVector<Complex> v(Index{1} << n, Complex{0});
  v[0] = Complex{1, 0};
  AlignedVector<Complex> w(v.size());
  replayPlan(*planA, v, w);
  EXPECT_NEAR(std::abs(w[0]), 1.0, 1e-12);
  cache.clearPackage(p);
  p.decRef(a);
  p.decRef(b);
}

TEST(SharedPlanCache, CrossPackageEvictionParksThePin) {
  const Qubit n = 4;
  dd::Package p1{n};
  dd::Package p2{n};
  flat::PlanCache cache{1};
  const dd::mEdge g1 = p1.makeGateDD({qc::GateKind::RZ, 0, {}, {0.5}});
  const dd::mEdge g2 = p2.makeGateDD({qc::GateKind::RZ, 0, {}, {0.5}});
  p1.incRef(g1);
  p2.incRef(g2);
  (void)cache.getShared(p1, g1, n, 1, flat::PlanMode::Row);
  // p2's miss evicts p1's entry; the unpin of p1's root must be deferred
  // (parked), not performed on p2's calling thread.
  (void)cache.getShared(p2, g2, n, 1, flat::PlanMode::Row);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // p1's next call drains its parked pin; afterwards the root is collectable
  // once the external ref is dropped. No crash/leak is the contract here.
  (void)cache.getShared(p1, g1, n, 1, flat::PlanMode::Row);
  cache.clearPackage(p1);
  cache.clearPackage(p2);
  p1.decRef(g1);
  p2.decRef(g2);
  p1.garbageCollect(true);
  p2.garbageCollect(true);
}

TEST(SharedPlanCache, TwoSimulatorsShareOneCache) {
  flat::PlanCache cache{64};
  flat::FlatDDOptions options;
  options.threads = 1;
  options.forceConversionAtGate = 0;  // straight to the DMAV phase
  options.sharedPlanCache = &cache;
  const qc::Circuit circuit = circuits::randomUniversal(5, 60, 17);

  auto sim1 = std::make_unique<flat::FlatDDSimulator>(5, options);
  auto sim2 = std::make_unique<flat::FlatDDSimulator>(5, options);
  sim1->simulate(circuit);
  sim2->simulate(circuit);
  EXPECT_GT(cache.stats().compiles, 0u);
  EXPECT_GT(cache.size(), 0u);
  // Identical circuits still compile per package (keys embed the package) —
  // both simulators hit only within their own session stream.
  EXPECT_GT(sim1->stats().planCacheHits, 0u);
  EXPECT_GT(sim2->stats().planCacheHits, 0u);

  const Complex before = sim2->amplitude(3);
  sim1.reset();  // destructor must clear only sim1's entries
  EXPECT_GT(cache.size(), 0u);
  EXPECT_EQ(sim2->amplitude(3), before);
  sim2->simulate(circuits::randomUniversal(5, 20, 18));  // still usable
  sim2.reset();
  EXPECT_EQ(cache.size(), 0u);  // everything unpinned and dropped
}

// ---------------------------------------------------------------------------
// SessionManager: concurrent sessions vs sequential replay
// ---------------------------------------------------------------------------

TEST(SvcSessionManager, OpenFindClose) {
  SessionManager manager{withWorkers(2)};
  const auto s1 = manager.open(makeConfig(4, 1));
  const auto s2 = manager.open(makeConfig(5, 2));
  EXPECT_EQ(manager.sessionCount(), 2u);
  EXPECT_NE(s1->id(), s2->id());
  EXPECT_EQ(manager.find(s1->id()), s1);
  EXPECT_TRUE(manager.close(s1->id()));
  EXPECT_FALSE(manager.close(s1->id()));
  EXPECT_EQ(manager.find(s1->id()), nullptr);
  EXPECT_EQ(manager.sessionCount(), 1u);
}

TEST(SvcSessionManager, ConcurrentSessionsMatchSequentialReplay) {
  constexpr unsigned kSessions = 8;
  constexpr unsigned kBatches = 3;
  constexpr Qubit kQubits = 6;

  const auto batchFor = [](unsigned session, unsigned batch) {
    return circuits::randomUniversal(kQubits, 40,
                                     1000 + 100 * session + batch);
  };

  SessionManager manager{withWorkers(4)};
  std::vector<std::shared_ptr<Session>> sessions;
  for (unsigned i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.open(makeConfig(kQubits, 500 + i)));
  }
  // Interleave submission round-robin so different sessions' jobs overlap
  // in the queue; per-session order is still batch 0, 1, 2.
  std::vector<JobHandle> handles;
  for (unsigned b = 0; b < kBatches; ++b) {
    for (unsigned i = 0; i < kSessions; ++i) {
      handles.push_back(manager.submit(
          sessions[i],
          [chunk = batchFor(i, b)](Session& s, const par::CancelToken& t) {
            s.apply(chunk, t);
          }));
    }
  }
  std::vector<std::vector<Index>> samples{kSessions};
  for (unsigned i = 0; i < kSessions; ++i) {
    handles.push_back(manager.submit(
        sessions[i], [&samples, i](Session& s, const par::CancelToken&) {
          samples[i] = s.sample(128);
        }));
  }
  for (const JobHandle& h : handles) {
    h->wait();
    ASSERT_EQ(h->state(), JobState::Done) << h->error();
  }

  // Sequential ground truth: same seeds, same batches, one at a time.
  for (unsigned i = 0; i < kSessions; ++i) {
    Session replay{9000 + i, makeConfig(kQubits, 500 + i), nullptr};
    for (unsigned b = 0; b < kBatches; ++b) {
      replay.apply(batchFor(i, b));
    }
    EXPECT_EQ(replay.sample(128), samples[i]) << "session " << i;
    for (const Index idx : {Index{0}, Index{13}, Index{63}}) {
      const Complex a = sessions[i]->amplitude(idx);
      const Complex e = replay.amplitude(idx);
      EXPECT_NEAR(a.real(), e.real(), 1e-9);
      EXPECT_NEAR(a.imag(), e.imag(), 1e-9);
    }
    EXPECT_EQ(sessions[i]->gatesApplied(), kBatches * 40u);
  }
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

const json::Object& asObject(const json::Value& v) {
  const json::Object* obj = v.object();
  EXPECT_NE(obj, nullptr);
  return *obj;
}

bool responseOk(const std::string& response) {
  const json::Value v = json::parse(response);
  const auto it = asObject(v).find("ok");
  return it != asObject(v).end() && it->second.boolean() != nullptr &&
         *it->second.boolean();
}

TEST(SvcProtocol, PingAndErrors) {
  Service service{withWorkers(1)};
  EXPECT_TRUE(responseOk(service.handleLine(R"({"op":"ping"})")));
  EXPECT_FALSE(responseOk(service.handleLine("not json")));
  EXPECT_FALSE(responseOk(service.handleLine(R"({"op":"frobnicate"})")));
  EXPECT_FALSE(
      responseOk(service.handleLine(R"({"op":"report","session":99})")));
  EXPECT_FALSE(responseOk(
      service.handleLine(R"({"op":"open","backend":"nope","qubits":3})")));
}

TEST(SvcProtocol, FullSessionRoundTrip) {
  Service service{withWorkers(2)};
  const std::string opened = service.handleLine(
      R"({"op":"open","backend":"flatdd","qubits":2,"seed":"12345678901234567890"})");
  ASSERT_TRUE(responseOk(opened)) << opened;
  const json::Value openedJson = json::parse(opened);
  const double sid = *asObject(openedJson).find("session")->second.number();
  const std::string sidStr = std::to_string(static_cast<int>(sid));

  // Bell pair.
  ASSERT_TRUE(responseOk(service.handleLine(
      R"({"op":"apply","session":)" + sidStr +
      R"(,"gates":[{"gate":"h","target":0},{"gate":"x","target":1,"controls":[0]}]})")));

  const std::string sampled = service.handleLine(
      R"({"op":"sample","session":)" + sidStr + R"(,"shots":200})");
  ASSERT_TRUE(responseOk(sampled));
  // Bell state: only outcomes 0 and 3.
  EXPECT_EQ(sampled.find("\"1\""), std::string::npos);
  EXPECT_EQ(sampled.find("\"2\""), std::string::npos);

  const std::string amp = service.handleLine(
      R"({"op":"amplitude","session":)" + sidStr + R"(,"index":0})");
  ASSERT_TRUE(responseOk(amp));
  EXPECT_NE(amp.find("0.7071"), std::string::npos);

  const std::string report = service.handleLine(
      R"({"op":"report","session":)" + sidStr + "}");
  ASSERT_TRUE(responseOk(report));
  // The 64-bit seed survives as a decimal string.
  EXPECT_NE(report.find("\"seed\":\"12345678901234567890\""),
            std::string::npos);

  // Checkpoint / diverge / restore.
  const std::string cp = service.handleLine(
      R"({"op":"checkpoint","session":)" + sidStr + "}");
  ASSERT_TRUE(responseOk(cp));
  ASSERT_TRUE(responseOk(service.handleLine(
      R"({"op":"apply","session":)" + sidStr +
      R"(,"gates":[{"gate":"x","target":0}]})")));
  const std::string restored = service.handleLine(
      R"({"op":"restore","session":)" + sidStr + R"(,"checkpoint":1})");
  ASSERT_TRUE(responseOk(restored));
  EXPECT_NE(restored.find("\"total_gates\":2"), std::string::npos);

  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"restore","session":)" + sidStr + R"(,"checkpoint":42})")));

  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"close","session":)" + sidStr + "}")));
  EXPECT_FALSE(responseOk(
      service.handleLine(R"({"op":"report","session":)" + sidStr + "}")));

  EXPECT_FALSE(service.shutdownRequested());
  EXPECT_TRUE(responseOk(service.handleLine(R"({"op":"shutdown"})")));
  EXPECT_TRUE(service.shutdownRequested());
}

TEST(SvcProtocol, QasmApplyAndGateValidation) {
  Service service{withWorkers(1)};
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":3,"seed":1})")));
  ASSERT_TRUE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"})")));
  // GHZ over 3 qubits: amplitude(7) = 1/sqrt(2).
  const std::string amp =
      service.handleLine(R"({"op":"amplitude","session":1,"index":7})");
  EXPECT_NE(amp.find("0.7071"), std::string::npos);

  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"gates":[{"gate":"warp","target":0}]})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"gates":[{"gate":"rz","target":0}]})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"gates":[{"gate":"h","target":9}]})")));
}

TEST(SvcProtocol, AsyncApplyJobLifecycle) {
  Service service{withWorkers(1)};
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":4,"seed":1})")));
  const std::string submitted = service.handleLine(
      R"({"op":"apply","session":1,"async":true,"gates":[{"gate":"h","target":0}]})");
  ASSERT_TRUE(responseOk(submitted)) << submitted;
  EXPECT_NE(submitted.find("\"job\":"), std::string::npos);

  // Poll with a generous wait: must end done with the gate applied.
  const std::string done = service.handleLine(
      R"({"op":"job","job":1,"wait_ms":10000})");
  ASSERT_TRUE(responseOk(done)) << done;
  EXPECT_NE(done.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(done.find("\"total_gates\":1"), std::string::npos);

  // The record is dropped once observed terminal.
  EXPECT_FALSE(responseOk(service.handleLine(R"({"op":"job","job":1})")));
  EXPECT_FALSE(responseOk(service.handleLine(R"({"op":"cancel","job":7})")));
}

TEST(SvcProtocol, DeadlinePropagates) {
  Service service{withWorkers(1)};
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":4,"seed":1})")));
  // An already-expired deadline must reject the job, not run it.
  const std::string expired = service.handleLine(
      R"({"op":"apply","session":1,"deadline_ms":0.0001,"gates":[{"gate":"h","target":0}]})");
  // Either expired at pop or cancelled mid-run — never ok.
  EXPECT_FALSE(responseOk(expired)) << expired;
  EXPECT_NE(expired.find("expired"), std::string::npos) << expired;
}

TEST(SvcProtocol, JobPollRacesLaterApply) {
  // Regression for a data race: polling a finished async apply reads
  // total_gates (Session::gatesApplied) on the handler thread while a later
  // job for the same session is still incrementing it on a queue worker.
  // The counter is atomic; TSan guards this test.
  Service service{withWorkers(2)};
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":10,"seed":1})")));
  ASSERT_TRUE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"async":true,"gates":[{"gate":"h","target":0}]})")));
  std::string bulk =
      R"({"op":"apply","session":1,"async":true,"gates":[)";
  for (int i = 0; i < 2000; ++i) {
    bulk += std::string{i == 0 ? "" : ","} + R"({"gate":"h","target":)" +
            std::to_string(i % 10) + "}";
  }
  bulk += "]}";
  ASSERT_TRUE(responseOk(service.handleLine(bulk)));

  // Job 1 finishes first (FIFO within the session); its poll reads the gate
  // counter while job 2 may still be applying.
  const std::string first =
      service.handleLine(R"({"op":"job","job":1,"wait_ms":10000})");
  ASSERT_TRUE(responseOk(first)) << first;
  const std::string second =
      service.handleLine(R"({"op":"job","job":2,"wait_ms":10000})");
  ASSERT_TRUE(responseOk(second)) << second;
  EXPECT_NE(second.find("\"total_gates\":2001"), std::string::npos)
      << second;
}

TEST(SvcProtocol, RejectsMalformedNumbers) {
  Service service{withWorkers(1)};
  // qubits: zero, negative, fractional, and absurd are all rejected.
  EXPECT_FALSE(responseOk(service.handleLine(R"({"op":"open","qubits":0})")));
  EXPECT_FALSE(
      responseOk(service.handleLine(R"({"op":"open","qubits":-3})")));
  EXPECT_FALSE(
      responseOk(service.handleLine(R"({"op":"open","qubits":2.5})")));
  EXPECT_FALSE(
      responseOk(service.handleLine(R"({"op":"open","qubits":400})")));

  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":3,"seed":1})")));

  // amplitude index must be an integer inside [0, 2^qubits).
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"amplitude","session":1,"index":8})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"amplitude","session":1,"index":-1})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"amplitude","session":1,"index":1.5})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"amplitude","session":1,"index":1e300})")));
  EXPECT_TRUE(responseOk(service.handleLine(
      R"({"op":"amplitude","session":1,"index":7})")));

  // shots: negative/fractional/huge are rejected.
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"sample","session":1,"shots":-5})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"sample","session":1,"shots":0.5})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"sample","session":1,"shots":1e12})")));

  // Gate targets/controls outside the register are rejected before any cast.
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"gates":[{"gate":"h","target":-1}]})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"gates":[{"gate":"x","target":0,"controls":[5]}]})")));

  // Priorities and durations are bounded integers / non-negative ms.
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"sample","session":1,"shots":1,"priority":1.5})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"sample","session":1,"shots":1,"deadline_ms":-1})")));
}

TEST(SvcProtocol, RejectsMalformedIdStrings) {
  Service service{withWorkers(1)};
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":2,"seed":1})")));
  // A typo'd id must be a parse error, not a silent 0 routed elsewhere.
  EXPECT_FALSE(responseOk(
      service.handleLine(R"({"op":"report","session":"abc"})")));
  EXPECT_FALSE(responseOk(
      service.handleLine(R"({"op":"report","session":"1x"})")));
  EXPECT_FALSE(responseOk(
      service.handleLine(R"({"op":"report","session":""})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"open","qubits":2,"seed":"99999999999999999999999999"})")));
  // A well-formed decimal string still works.
  EXPECT_TRUE(responseOk(
      service.handleLine(R"({"op":"report","session":"1"})")));
}

TEST(SvcProtocol, CheckpointCapAndRelease) {
  Service service{withWorkers(1)};
  ASSERT_TRUE(responseOk(service.handleLine(
      R"({"op":"open","qubits":2,"seed":1,"max_checkpoints":2})")));
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"checkpoint","session":1})")));
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"checkpoint","session":1})")));
  // At the cap: a third checkpoint fails with a clear error.
  const std::string full =
      service.handleLine(R"({"op":"checkpoint","session":1})");
  EXPECT_FALSE(responseOk(full));
  EXPECT_NE(full.find("release"), std::string::npos) << full;

  // Releasing one frees the slot; releasing it again is an error.
  const std::string released = service.handleLine(
      R"({"op":"release","session":1,"checkpoint":1})");
  ASSERT_TRUE(responseOk(released)) << released;
  EXPECT_NE(released.find("\"checkpoints\":1"), std::string::npos);
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"release","session":1,"checkpoint":1})")));
  EXPECT_FALSE(responseOk(service.handleLine(
      R"({"op":"restore","session":1,"checkpoint":1})")));
  EXPECT_TRUE(responseOk(
      service.handleLine(R"({"op":"checkpoint","session":1})")));
  EXPECT_TRUE(responseOk(service.handleLine(
      R"({"op":"restore","session":1,"checkpoint":2})")));
}

TEST(SvcProtocol, UnpolledAsyncJobsExpire) {
  ServiceConfig cfg = withWorkers(1);
  cfg.asyncJobGraceMs = 0;  // expire terminal jobs on the next sweep
  Service service{cfg};
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":3,"seed":1})")));
  ASSERT_TRUE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"async":true,"gates":[{"gate":"h","target":0}]})")));
  // A sync apply on the same session serializes after the async job, so by
  // the time it returns the async job is terminal.
  ASSERT_TRUE(responseOk(service.handleLine(
      R"({"op":"apply","session":1,"gates":[{"gate":"h","target":1}]})")));
  // First sweep stamps the (zero) grace deadline, second collects.
  EXPECT_TRUE(responseOk(service.handleLine(R"({"op":"ping"})")));
  EXPECT_TRUE(responseOk(service.handleLine(R"({"op":"ping"})")));
  const std::string gone = service.handleLine(R"({"op":"job","job":1})");
  EXPECT_FALSE(responseOk(gone));
  EXPECT_NE(gone.find("unknown job"), std::string::npos) << gone;
}

TEST(JobQueue, TerminalJobReleasesClosure) {
  JobQueue queue{1};
  auto marker = std::make_shared<int>(7);
  const JobHandle handle =
      queue.submit([marker](const par::CancelToken&) {});
  handle->wait();
  // The handle stays alive, but the closure (and anything it captured — in
  // the service, the Session) must be dropped at terminal state. finish()
  // releases it just before notifying, so poll briefly for the count.
  for (int i = 0; i < 2000 && marker.use_count() > 1; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(marker.use_count(), 1);

  // Jobs cancelled at shutdown (never run) release their closures too.
  JobQueue stalled{1};
  Blocker blocker{stalled};
  auto queued = std::make_shared<int>(8);
  const JobHandle orphan =
      stalled.submit([queued](const par::CancelToken&) {});
  blocker.release();
  stalled.shutdown();
  EXPECT_EQ(queued.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Request context: ids, timing fields, slow log
// ---------------------------------------------------------------------------

TEST(SvcRequestContext, RequestIdEchoedAndGenerated) {
  Service service{withWorkers(1)};
  // Client-supplied id (decimal string) comes back verbatim, as a string.
  const std::string pong =
      service.handleLine(R"({"op":"ping","request_id":"424242"})");
  EXPECT_TRUE(responseOk(pong));
  EXPECT_NE(pong.find("\"request_id\":\"424242\""), std::string::npos)
      << pong;
  // Numeric form works too.
  const std::string numeric =
      service.handleLine(R"({"op":"ping","request_id":7})");
  EXPECT_NE(numeric.find("\"request_id\":\"7\""), std::string::npos);
  // One is generated when absent.
  const std::string generated = service.handleLine(R"({"op":"ping"})");
  EXPECT_NE(generated.find("\"request_id\":\""), std::string::npos)
      << generated;
  // The id is echoed even on errors raised after it was assigned.
  const std::string err =
      service.handleLine(R"({"op":"frobnicate","request_id":"99"})");
  EXPECT_FALSE(responseOk(err));
  EXPECT_NE(err.find("\"request_id\":\"99\""), std::string::npos) << err;
  // A full u64 above 2^53 survives the round trip undamaged.
  const std::string big = service.handleLine(
      R"({"op":"ping","request_id":"11529215046068469760"})");
  EXPECT_NE(big.find("\"request_id\":\"11529215046068469760\""),
            std::string::npos)
      << big;
  // Responses stay parseable with the spliced field.
  EXPECT_NO_THROW((void)json::parse(pong));
  EXPECT_NO_THROW((void)json::parse(err));
}

TEST(SvcRequestContext, TimingFieldsOnQueueJobOps) {
  Service service{withWorkers(1)};
  ASSERT_TRUE(responseOk(
      service.handleLine(R"({"op":"open","qubits":2,"seed":1})")));
  const std::string applied = service.handleLine(
      R"({"op":"apply","session":1,"timing":true,"gates":[{"gate":"h","target":0}]})");
  ASSERT_TRUE(responseOk(applied)) << applied;
  EXPECT_NE(applied.find("\"queue_wait_us\":"), std::string::npos)
      << applied;
  EXPECT_NE(applied.find("\"exec_us\":"), std::string::npos) << applied;
  EXPECT_NO_THROW((void)json::parse(applied));

  const std::string sampled = service.handleLine(
      R"({"op":"sample","session":1,"shots":4,"timing":true,"request_id":"31337"})");
  ASSERT_TRUE(responseOk(sampled)) << sampled;
  EXPECT_NE(sampled.find("\"queue_wait_us\":"), std::string::npos);
  EXPECT_NE(sampled.find("\"request_id\":\"31337\""), std::string::npos);

  // Without timing:true the fields are absent.
  const std::string plain = service.handleLine(
      R"({"op":"sample","session":1,"shots":4})");
  EXPECT_EQ(plain.find("queue_wait_us"), std::string::npos) << plain;
}

TEST(SvcSlowLog, WritesJsonlRecordsWithRequestId) {
  const std::string path =
      ::testing::TempDir() + "flatdd_slow_log_test.jsonl";
  std::remove(path.c_str());
  {
    ServiceConfig cfg = withWorkers(1);
    cfg.slowLogPath = path;
    cfg.slowRequestMs = 0;  // log every request
    Service service{cfg};
    ASSERT_TRUE(responseOk(
        service.handleLine(R"({"op":"open","qubits":2,"seed":1})")));
    ASSERT_TRUE(responseOk(service.handleLine(
        R"({"op":"apply","session":1,"request_id":"8675309","gates":[{"gate":"h","target":0}]})")));
    ASSERT_TRUE(responseOk(service.handleLine(
        R"({"op":"sample","session":1,"shots":8})")));
    EXPECT_TRUE(service.sessions().slowLog().enabled());
    EXPECT_GE(service.sessions().slowLog().written(), 2u);
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::string line;
  int entries = 0;
  bool sawApply = false;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const json::Value v = json::parse(line);  // every line is valid JSON
    const json::Object& obj = asObject(v);
    EXPECT_EQ(*obj.find("event")->second.string(), "slow_request");
    ++entries;
    if (*obj.find("op")->second.string() == "apply") {
      sawApply = true;
      EXPECT_EQ(*obj.find("request_id")->second.string(), "8675309");
      EXPECT_EQ(*obj.find("session")->second.number(), 1);
      EXPECT_TRUE(obj.find("queue_wait_ms") != obj.end());
      EXPECT_TRUE(obj.find("exec_ms") != obj.end());
      EXPECT_TRUE(obj.find("simd_tier") != obj.end());
      EXPECT_EQ(*obj.find("gates")->second.number(), 1);
    }
  }
  EXPECT_GE(entries, 2);
  EXPECT_TRUE(sawApply);
  std::remove(path.c_str());
}

TEST(SvcSlowLog, ThresholdAndRateLimit) {
  const std::string path =
      ::testing::TempDir() + "flatdd_slow_log_limit.jsonl";
  std::remove(path.c_str());
  {
    // High threshold: a fast entry is skipped, a "stall" event bypasses it.
    SlowRequestLog log{path, 1e9, 2};
    SlowLogEntry fast;
    fast.op = "apply";
    fast.totalMs = 0.1;
    EXPECT_FALSE(log.record(fast));
    SlowLogEntry stall;
    stall.event = "stall";
    stall.op = "apply";
    stall.totalMs = 0.1;
    EXPECT_TRUE(log.record(stall));

    // Token bucket: burst of `maxPerSec` then suppression.
    SlowRequestLog limited{path + ".2", 0, 2};
    SlowLogEntry e;
    e.op = "sample";
    int written = 0;
    for (int i = 0; i < 10; ++i) {
      if (limited.record(e)) {
        ++written;
      }
    }
    EXPECT_LE(written, 3);  // burst cap ~= maxPerSec (+refill slop)
    EXPECT_GT(limited.suppressed(), 0u);
  }
  std::remove(path.c_str());
  std::remove((path + ".2").c_str());

  // Disabled (empty path): record is a no-op that reports false.
  SlowRequestLog off;
  EXPECT_FALSE(off.enabled());
  SlowLogEntry e;
  EXPECT_FALSE(off.record(e));
}

// ---------------------------------------------------------------------------
// Queue gauges, watchdog, healthz
// ---------------------------------------------------------------------------

#if FDD_OBS_ENABLED
TEST(JobQueue, DepthAndStashedGaugesSplit) {
  obs::setEnabled(true);
  obs::Registry::instance().reset();
  const auto gaugeValue = [](const char* name) {
    for (const auto& g : obs::Registry::instance().snapshot().gauges) {
      if (g.name == name) {
        return g.value;
      }
    }
    return 0.0;
  };
  {
    JobQueue queue{1};
    Blocker blocker{queue};
    // One schedulable job on key 9, one stashed behind it on the same key.
    const JobHandle first =
        queue.submit([](const par::CancelToken&) {}, {}, /*orderKey=*/9);
    const JobHandle second =
        queue.submit([](const par::CancelToken&) {}, {}, /*orderKey=*/9);
    EXPECT_EQ(gaugeValue("service.queue_depth"), 1.0);
    EXPECT_EQ(gaugeValue("service.queue_stashed"), 1.0);
    const JobQueue::Stats stats = queue.stats();
    EXPECT_EQ(stats.runnable, 1u);
    EXPECT_EQ(stats.stashed, 1u);
    blocker.join();
    first->wait();
    second->wait();
    EXPECT_EQ(gaugeValue("service.queue_depth"), 0.0);
    EXPECT_EQ(gaugeValue("service.queue_stashed"), 0.0);
  }
  obs::setEnabled(false);
  obs::Registry::instance().reset();
}
#endif  // FDD_OBS_ENABLED

TEST(SvcWatchdog, FlagsLongRunningJobOnce) {
  const std::string path = ::testing::TempDir() + "flatdd_stall_log.jsonl";
  std::remove(path.c_str());
  {
    JobQueue queue{1};
    SlowRequestLog log{path, 1e9, 100};  // threshold can't mask stalls
    Watchdog::Config cfg;
    cfg.intervalMs = 0;  // no thread; drive scans manually
    cfg.graceMs = 0;
    cfg.stallMs = 1;
    Watchdog watchdog{queue, &log, cfg};
    EXPECT_FALSE(watchdog.running());

    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    JobOptions opts;
    opts.requestId = 555;
    opts.label = "blocker";
    const JobHandle job = queue.submit(
        [&](const par::CancelToken&) {
          started.store(true);
          while (!release.load()) {
            std::this_thread::sleep_for(1ms);
          }
        },
        opts);
    while (!started.load()) {
      std::this_thread::sleep_for(1ms);
    }
    std::this_thread::sleep_for(5ms);  // cross the 1ms stall ceiling

    watchdog.scanOnce();
    EXPECT_EQ(watchdog.stalledNow(), 1u);
    EXPECT_EQ(watchdog.stalledTotal(), 1u);
    EXPECT_TRUE(job->stallFlagged());
    watchdog.scanOnce();  // one-shot: the total must not increment again
    EXPECT_EQ(watchdog.stalledTotal(), 1u);
    EXPECT_EQ(log.written(), 1u);

    release.store(true);
    job->wait();
    watchdog.scanOnce();
    EXPECT_EQ(watchdog.stalledNow(), 0u);  // gauge decays, counter stays
    EXPECT_EQ(watchdog.stalledTotal(), 1u);
    watchdog.stop();
  }
  // The stall record carries the request id and label, bypassing the
  // threshold.
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  const json::Value record = json::parse(line);
  const json::Object& obj = asObject(record);
  EXPECT_EQ(*obj.find("event")->second.string(), "stall");
  EXPECT_EQ(*obj.find("request_id")->second.string(), "555");
  EXPECT_EQ(*obj.find("op")->second.string(), "blocker");
  EXPECT_EQ(*obj.find("state")->second.string(), "running");
  std::remove(path.c_str());
}

TEST(SvcWatchdog, ThreadScansWithoutManualDriving) {
  JobQueue queue{1};
  Watchdog::Config cfg;
  cfg.intervalMs = 5;
  cfg.graceMs = 0;
  cfg.stallMs = 1;
  Watchdog watchdog{queue, nullptr, cfg};
  EXPECT_TRUE(watchdog.running());

  std::atomic<bool> release{false};
  const JobHandle job = queue.submit([&](const par::CancelToken&) {
    while (!release.load()) {
      std::this_thread::sleep_for(1ms);
    }
  });
  // The watchdog thread must flag the job by itself within a few periods.
  for (int i = 0; i < 2000 && watchdog.stalledTotal() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(watchdog.stalledTotal(), 1u);
  release.store(true);
  job->wait();
  watchdog.stop();
  EXPECT_FALSE(watchdog.running());
  watchdog.stop();  // idempotent
}

TEST(SvcHealthz, ReportsQueueAndDegradesOnStall) {
  ServiceConfig cfg = withWorkers(1);
  cfg.watchdogIntervalMs = 0;  // drive scans manually
  cfg.watchdogGraceMs = 0;
  cfg.watchdogStallMs = 1;
  Service service{cfg};

  const json::Value healthy = json::parse(service.healthzJson());
  const json::Object& h = asObject(healthy);
  EXPECT_EQ(*h.find("status")->second.string(), "ok");
  EXPECT_TRUE(h.find("uptime_seconds") != h.end());
  EXPECT_TRUE(h.find("sessions") != h.end());
  const json::Object& q = *h.find("queue")->second.object();
  EXPECT_EQ(*q.find("workers")->second.number(), 1);
  EXPECT_TRUE(q.find("depth") != q.end());
  EXPECT_TRUE(q.find("stashed") != q.end());
  EXPECT_TRUE(h.find("worker_progress") != h.end());

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  const JobHandle job = service.sessions().queue().submit(
      [&](const par::CancelToken&) {
        started.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(1ms);
        }
      });
  while (!started.load()) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(5ms);
  service.sessions().watchdog().scanOnce();

  const std::string degraded = service.healthzJson();
  EXPECT_NE(degraded.find("\"status\":\"degraded\""), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("\"jobs_stalled\":1"), std::string::npos)
      << degraded;

  release.store(true);
  job->wait();
  service.sessions().watchdog().scanOnce();
  const std::string recovered = service.healthzJson();
  EXPECT_NE(recovered.find("\"status\":\"ok\""), std::string::npos)
      << recovered;
  EXPECT_NE(recovered.find("\"jobs_stalled_total\":1"), std::string::npos)
      << recovered;
}

// ---------------------------------------------------------------------------
// Admin listener
// ---------------------------------------------------------------------------

std::string httpGet(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)::write(fd, req.data(), req.size());
  std::string out;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof chunk)) > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string httpBody(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string{} : response.substr(pos + 4);
}

TEST(SvcAdmin, ServesMetricsHealthzAndTracez) {
  // obs on so /metrics and /tracez carry content — mirrors --metrics-port.
  obs::setEnabled(true);
  obs::clearTrace();
  obs::Registry::instance().reset();
  {
    Service service{withWorkers(1)};
    AdminServer admin{service, 0};  // ephemeral port
    ASSERT_NE(admin.port(), 0);

    ASSERT_TRUE(responseOk(
        service.handleLine(R"({"op":"open","qubits":2,"seed":1})")));
    ASSERT_TRUE(responseOk(service.handleLine(
        R"({"op":"apply","session":1,"gates":[{"gate":"h","target":0}]})")));

    const std::string metrics = httpGet(admin.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(metrics.find("flatdd_uptime_seconds"), std::string::npos);
#if FDD_OBS_ENABLED
    // The sync apply ran as a queue job, so its latency histogram is live.
    EXPECT_NE(metrics.find("flatdd_service_job_latency_seconds"),
              std::string::npos)
        << metrics;
#endif

    const std::string healthz = httpGet(admin.port(), "/healthz");
    EXPECT_NE(healthz.find("200 OK"), std::string::npos);
    EXPECT_NE(healthz.find("application/json"), std::string::npos);
    const json::Value h = json::parse(httpBody(healthz));
    EXPECT_EQ(*asObject(h).find("status")->second.string(), "ok");
    EXPECT_EQ(*asObject(h).find("sessions")->second.number(), 1);

    const std::string tracez = httpGet(admin.port(), "/tracez");
    EXPECT_NE(tracez.find("200 OK"), std::string::npos);
    const json::Value t = json::parse(httpBody(tracez));
    EXPECT_TRUE(asObject(t).find("traceEvents") != asObject(t).end());

    const std::string missing = httpGet(admin.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    admin.stop();
    admin.stop();  // idempotent
  }
  obs::setEnabled(false);
  obs::clearTrace();
  obs::Registry::instance().reset();
}

// ---------------------------------------------------------------------------
// PRNG checkpointing
// ---------------------------------------------------------------------------

TEST(PrngState, SaveRestoreResumesSequence) {
  Xoshiro256 rng{123};
  for (int i = 0; i < 10; ++i) {
    (void)rng();
  }
  const auto saved = rng.state();
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 16; ++i) {
    expect.push_back(rng());
  }
  Xoshiro256 resumed{999};  // different seed, then overwritten
  resumed.setState(saved);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(resumed(), expect[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace fdd::svc
