// serve-trotter: nproc closed-loop clients drive an in-process svc::Service
// through handleLine. Each client owns one 16-qubit flatdd session
// (threads = 1) at a time; one job is an apply request carrying
// kStepsPerBatch identical Trotter steps as QASM plus a sample request.
// After kBatchesPerSession jobs the session is closed and a new one opened.
//
// Why these sizes, measured on a 4-vCPU x86-64 VM: with one step per job a
// 25 s run holds ~7000 jobs, so the tail is p99, and p99 moved by up to 40%
// between identical runs — a few hundred milliseconds of host interference,
// or of a new session compiling its plans under the shared plan cache's
// lock, is already 1% of the jobs. With 16 steps per job a run holds ~450
// jobs, the tail is p90, and only disturbances longer than a tenth of the
// run move it. The Trotter angles are constants: they set how long a
// session stays in the DD phase, and with per-session random angles a
// run's throughput depended on its draw.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/prng.hpp"
#include "common/rss.hpp"
#include "composed.hpp"
#include "parallel/thread_pool.hpp"
#include "qasm/parser.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "workload.hpp"

namespace perfbench {

using fdd::Index;
using fdd::Qubit;

namespace {

constexpr unsigned kStepsPerBatch = 16;
constexpr unsigned kBatchesPerSession = 64;
constexpr std::size_t kShots = 128;
constexpr unsigned kAmplitudeChecks = 4;
constexpr int kSetupRepeats = 31;
constexpr double kMismatchTolerance = 1e-9;
constexpr double kTheta = 0.1;
constexpr double kPhi = 0.15;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Inputs of one session: its seed (the sampling stream) and amplitude
/// checks derive from the workload seed.
struct SessionPlan {
  unsigned client = 0;
  unsigned index = 0;
  std::uint64_t seed = 0;  // the session seed (its sampling stream)
  std::string qasm;        // one batch: kStepsPerBatch Trotter steps
  std::vector<Index> amplitudeIndices;
};

SessionPlan planSession(std::uint64_t workloadSeed, Qubit n, unsigned client,
                        unsigned index) {
  SessionPlan p;
  p.client = client;
  p.index = index;
  p.seed = deriveSeed(workloadSeed,
                      (std::uint64_t{client + 1} << 32) | (index + 1));
  fdd::Xoshiro256 rng{p.seed};
  p.qasm = trotterQasm(n, kStepsPerBatch, kTheta, kPhi);
  for (unsigned k = 0; k < kAmplitudeChecks; ++k) {
    p.amplitudeIndices.push_back(rng.below(Index{1} << n));
  }
  return p;
}

/// What one session sent and got back, for the replay check.
struct SessionLog {
  SessionPlan plan;
  std::vector<std::string> samples;     // one sample response per job
  std::vector<std::string> amplitudes;  // one per amplitude index
  std::vector<bool> jobFailed;
};

/// Request builder. Ids are a function of (client, session, sequence) so a
/// replay sends byte-identical requests apart from the session id.
class Requests {
 public:
  Requests(const SessionPlan& plan, bool timing)
      : base_{(std::uint64_t{plan.client + 1} << 40) |
              (std::uint64_t{plan.index} << 16)},
        timing_{timing} {}

  std::string open(const SessionPlan& plan, Qubit n) {
    fdd::json::Writer w;
    begin(w, "open");
    w.field("backend", "flatdd");
    w.field("qubits", static_cast<unsigned>(n));
    w.field("threads", 1u);
    w.field("seed", std::to_string(plan.seed));
    return end(w);
  }
  std::string apply(std::uint64_t session, const std::string& qasm) {
    fdd::json::Writer w;
    begin(w, "apply", session);
    w.field("qasm", qasm);
    return end(w);
  }
  std::string sample(std::uint64_t session) {
    fdd::json::Writer w;
    begin(w, "sample", session);
    w.field("shots", kShots);
    return end(w);
  }
  std::string amplitude(std::uint64_t session, Index index) {
    fdd::json::Writer w;
    begin(w, "amplitude", session);
    w.field("index", static_cast<double>(index));
    return end(w);
  }
  std::string close(std::uint64_t session) {
    fdd::json::Writer w;
    begin(w, "close", session);
    return end(w);
  }

 private:
  void begin(fdd::json::Writer& w, const char* op,
             std::optional<std::uint64_t> session = std::nullopt) {
    w.beginObject();
    w.field("op", op);
    if (session) {
      w.field("session", static_cast<std::size_t>(*session));
    }
    w.field("request_id", std::to_string(base_ + ++seq_));
    if (timing_) {
      w.field("timing", true);
    }
  }
  static std::string end(fdd::json::Writer& w) {
    w.endObject();
    return w.take();
  }

  std::uint64_t base_;
  std::uint64_t seq_ = 0;
  bool timing_;
};

bool okResponse(const std::string& r) {
  return r.rfind("{\"ok\":true", 0) == 0;
}

const fdd::json::Object* parseObject(const std::string& r,
                                     fdd::json::Value& holder) {
  holder = fdd::json::parse(r);
  return holder.object();
}

std::uint64_t sessionIdOf(const std::string& openResponse) {
  fdd::json::Value v;
  const fdd::json::Object* o = parseObject(openResponse, v);
  const auto it = o == nullptr ? fdd::json::Object::const_iterator{}
                               : o->find("session");
  if (o == nullptr || it == o->end() || it->second.number() == nullptr) {
    throw std::runtime_error("open failed: " + openResponse);
  }
  return static_cast<std::uint64_t>(*it->second.number());
}

/// Drops the `"queue_wait_us":..,"exec_us":..,` part a timed response
/// carries, so timed responses compare on their content.
std::string stripTiming(std::string r) {
  const std::size_t a = r.find(",\"queue_wait_us\":");
  if (a == std::string::npos) {
    return r;
  }
  const std::size_t b = r.find(",\"request_id\":", a);
  r.erase(a, (b == std::string::npos ? r.size() - 1 : b) - a);
  return r;
}

/// Service-side timing of a timed response: queue wait and execution.
std::pair<double, double> timingOf(const std::string& r) {
  fdd::json::Value v;
  const fdd::json::Object* o = parseObject(r, v);
  double wait = 0;
  double exec = 0;
  if (o != nullptr) {
    if (const auto it = o->find("queue_wait_us");
        it != o->end() && it->second.number() != nullptr) {
      wait = *it->second.number() * 1e-6;
    }
    if (const auto it = o->find("exec_us");
        it != o->end() && it->second.number() != nullptr) {
      exec = *it->second.number() * 1e-6;
    }
  }
  return {wait, exec};
}

fdd::svc::ServiceConfig serviceConfig(unsigned workers) {
  fdd::svc::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.engineDefaults.threads = 1;
  return cfg;
}

/// Per-client tallies of the measured window.
struct ClientStats {
  std::vector<double> latencies;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double lastJobEnd = 0;
  // Service-layer split (timed responses only).
  std::size_t requests = 0;
  std::size_t errors = 0;
  double queueWait = 0;
  double exec = 0;
  double protocol = 0;
};

/// One request through the service, with its service-layer accounting.
std::string roundTrip(fdd::svc::Service& service, const std::string& line,
                      ClientStats& stats, bool timing) {
  const double t0 = now();
  std::string response = service.handleLine(line);
  const double rt = now() - t0;
  ++stats.requests;
  if (!okResponse(response)) {
    ++stats.errors;
  }
  if (timing) {
    const auto [wait, exec] = timingOf(response);
    stats.queueWait += wait;
    stats.exec += exec;
    stats.protocol += rt - wait - exec;
  }
  return response;
}

/// Runs one session's remaining batches until the deadline, then its
/// amplitude queries and close.
void driveSession(fdd::svc::Service& service, SessionLog& log,
                  std::uint64_t sessionId, Requests& req, double deadline,
                  bool timing, ClientStats& stats) {
  for (unsigned b = 0; b < kBatchesPerSession && now() < deadline; ++b) {
    ++stats.attempted;
    const double t0 = now();
    const std::string applied =
        roundTrip(service, req.apply(sessionId, log.plan.qasm), stats, timing);
    const std::string sampled =
        roundTrip(service, req.sample(sessionId), stats, timing);
    const double t1 = now();
    const bool ok = okResponse(applied) && okResponse(sampled);
    stats.latencies.push_back(t1 - t0);
    stats.lastJobEnd = t1;
    log.samples.push_back(stripTiming(sampled));
    log.jobFailed.push_back(!ok);
  }
  for (const Index i : log.plan.amplitudeIndices) {
    log.amplitudes.push_back(
        stripTiming(roundTrip(service, req.amplitude(sessionId, i), stats,
                              timing)));
  }
  (void)roundTrip(service, req.close(sessionId), stats, timing);
}

/// Replays each logged session alone on a fresh single-worker Service and
/// marks every job whose sample (or, for the session's last job, amplitude)
/// responses differ byte for byte. Sessions replay concurrently on up to
/// `threads` threads; each session's replay is sequential and isolated.
void verifyByReplay(std::vector<SessionLog>& logs, Qubit n, unsigned threads,
                    bool timing) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    fdd::svc::ServiceConfig cfg = serviceConfig(1);
    cfg.watchdogIntervalMs = 0;
    fdd::svc::Service service{cfg};
    for (std::size_t k = next++; k < logs.size(); k = next++) {
      SessionLog& log = logs[k];
      Requests req{log.plan, timing};
      ClientStats ignored;
      try {
        const std::uint64_t id = sessionIdOf(
            roundTrip(service, req.open(log.plan, n), ignored, false));
        for (std::size_t b = 0; b < log.samples.size(); ++b) {
          (void)roundTrip(service, req.apply(id, log.plan.qasm), ignored,
                          false);
          const std::string s =
              stripTiming(roundTrip(service, req.sample(id), ignored, false));
          if (s != log.samples[b]) {
            log.jobFailed[b] = true;
          }
        }
        bool amplitudesMatch = true;
        for (std::size_t a = 0; a < log.plan.amplitudeIndices.size(); ++a) {
          const std::string r = stripTiming(roundTrip(
              service, req.amplitude(id, log.plan.amplitudeIndices[a]),
              ignored, false));
          amplitudesMatch = amplitudesMatch && r == log.amplitudes[a];
        }
        if (!amplitudesMatch && !log.jobFailed.empty()) {
          log.jobFailed.back() = true;
        }
        (void)roundTrip(service, req.close(id), ignored, false);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "replay failed: %s\n", ex.what());
        std::fill(log.jobFailed.begin(), log.jobFailed.end(), true);
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

/// The traced composition of every logged session, each next to an
/// untraced svc::Session run of the same jobs (sequential, one thread).
void composeSessions(const std::vector<SessionLog>& logs, Qubit n,
                     LayerReport& layers) {
  SpanRecorder recorder;
  for (const SessionLog& log : logs) {
    fdd::svc::SessionConfig cfg;
    cfg.backend = "flatdd";
    cfg.qubits = n;
    cfg.seed = log.plan.seed;
    cfg.engine.threads = 1;
    fdd::svc::Session session{1, cfg, nullptr};
    fdd::engine::EngineOptions options = cfg.engine;
    options.seed = cfg.seed;
    ComposedFlatDD composed{n, options, recorder};
    fdd::Xoshiro256 rng{fdd::SplitMix64{cfg.seed}.next()};
    constexpr std::size_t kSlice = fdd::svc::Session::kCancelCheckGates;

    for (std::size_t b = 0; b < log.samples.size(); ++b) {
      const double u0 = now();
      const fdd::qc::Circuit batch = fdd::qasm::parse(log.plan.qasm, "request");
      session.apply(batch);
      const std::vector<Index> expected = session.sample(kShots);
      layers.untracedSeconds += now() - u0;

      const double c0 = recorder.now();
      std::vector<Index> got;
      {
        const SpanRecorder::Scope job{recorder, Layer::Job};
        const fdd::qc::Circuit parsed = [&] {
          const SpanRecorder::Scope parse{recorder, Layer::QasmParse};
          return fdd::qasm::parse(log.plan.qasm, "request");
        }();
        const auto& ops = parsed.operations();
        for (std::size_t begin = 0; begin < ops.size(); begin += kSlice) {
          fdd::qc::Circuit slice{n, parsed.name()};
          for (std::size_t i = begin; i < std::min(begin + kSlice, ops.size());
               ++i) {
            slice.append(ops[i]);
          }
          composed.simulate(slice);
        }
        got = composed.sessionSample(kShots, rng);
      }
      layers.tracedSeconds += recorder.now() - c0;
      ++layers.jobs;
      layers.qasmBytes += log.plan.qasm.size();
      layers.totalGates += batch.numGates();

      const fdd::engine::RunReport report = session.report();
      const ComposedStats& st = composed.stats();
      bool agree = got == expected && report.converted == st.converted &&
                   report.conversionGateIndex == st.conversionGateIndex &&
                   report.planCompiles == st.planCompiles;
      if (b + 1 == log.samples.size()) {
        const fdd::AlignedVector<fdd::Complex> state = composed.stateVector();
        for (Index i = 0; i < state.size() && agree; ++i) {
          agree = std::abs(state[i] - session.amplitude(i)) <=
                  kMismatchTolerance;
        }
      }
      if (!agree) {
        ++layers.mismatchJobs;
      }
    }
    addSimulation(layers, composed);
  }
  layers.layers = aggregate(recorder.spans());
}

}  // namespace

RunResult runServe(const RunConfig& config) {
  const Qubit n = config.smoke ? 8 : 16;
  const unsigned clients = config.nproc;
  std::printf("serve-trotter: %u clients, %u-qubit flatdd sessions "
              "(threads=1), %u Trotter steps (%zu gates) per apply, %zu "
              "shots per sample, %u jobs per session\n",
              clients, static_cast<unsigned>(n), kStepsPerBatch,
              static_cast<std::size_t>(kStepsPerBatch) * (3 * (n - 1) + n),
              kShots, kBatchesPerSession);

  // Program set-up: worker pool, Service and the first session of every
  // client, repeated so the median is stable; the last one is kept.
  EndToEnd e2e;
  std::unique_ptr<fdd::svc::Service> service;
  std::vector<SessionLog> firstLogs;
  std::vector<std::uint64_t> firstIds;
  for (int k = 0; k < kSetupRepeats; ++k) {
    service.reset();
    firstLogs.clear();
    firstIds.clear();
    releaseFreedMemory();
    const double t0 = now();
    fdd::par::resizePool(config.nproc);
    service = std::make_unique<fdd::svc::Service>(serviceConfig(clients));
    for (unsigned c = 0; c < clients; ++c) {
      SessionLog log;
      log.plan = planSession(config.seed, n, c, 0);
      Requests req{log.plan, false};
      firstIds.push_back(sessionIdOf(service->handleLine(req.open(log.plan, n))));
      firstLogs.push_back(std::move(log));
    }
    e2e.setupSeconds.push_back(now() - t0);
    if (k + 1 < kSetupRepeats) {
      for (unsigned c = 0; c < clients; ++c) {
        Requests req{firstLogs[c].plan, false};
        (void)service->handleLine(req.close(firstIds[c]));
      }
    }
  }

  // The traced run measures a shorter window: its jobs are then composed
  // and run untraced again one at a time, which costs about 2*nproc times
  // the window. A quarter of each client's session still fits in it.
  const double window =
      config.trace ? config.seconds / clients : config.seconds;
  std::vector<ClientStats> stats(clients);
  std::vector<std::vector<SessionLog>> logs(clients);
  const double start = now();
  const double deadline = start + window;
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          SessionLog first = std::move(firstLogs[c]);
          Requests firstReq{first.plan, config.trace};
          // The open request of the set-up advanced the first session's
          // request ids; replay that step so ids line up.
          (void)firstReq.open(first.plan, n);
          driveSession(*service, first, firstIds[c], firstReq, deadline,
                       config.trace, stats[c]);
          logs[c].push_back(std::move(first));
          for (unsigned k = 1; now() < deadline; ++k) {
            SessionLog log;
            log.plan = planSession(config.seed, n, c, k);
            Requests req{log.plan, config.trace};
            const std::uint64_t id = sessionIdOf(
                roundTrip(*service, req.open(log.plan, n), stats[c],
                          config.trace));
            driveSession(*service, log, id, req, deadline, config.trace,
                         stats[c]);
            logs[c].push_back(std::move(log));
          }
        } catch (const std::exception& ex) {
          std::fprintf(stderr, "client %u failed: %s\n", c, ex.what());
          ++stats[c].failed;
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  e2e.peakRssBytes = static_cast<double>(fdd::peakRSS());
  service.reset();

  std::vector<SessionLog> all;
  for (auto& perClient : logs) {
    for (SessionLog& log : perClient) {
      all.push_back(std::move(log));
    }
  }
  verifyByReplay(all, n, config.nproc, config.trace);

  RunResult result;
  double lastEnd = start;
  LayerReport layers;
  for (const ClientStats& s : stats) {
    result.attempted += s.attempted;
    result.failed += s.failed;
    e2e.jobLatencies.insert(e2e.jobLatencies.end(), s.latencies.begin(),
                            s.latencies.end());
    lastEnd = std::max(lastEnd, s.lastJobEnd);
    layers.serviceRequests += s.requests;
    layers.serviceErrors += s.errors;
    layers.queueWaitSeconds += s.queueWait;
    layers.execSeconds += s.exec;
    layers.protocolSeconds += s.protocol;
  }
  for (const SessionLog& log : all) {
    result.failed += static_cast<std::size_t>(
        std::count(log.jobFailed.begin(), log.jobFailed.end(), true));
  }
  e2e.wallSeconds = lastEnd - start;
  std::printf("sessions: %zu, jobs: %zu, replay-verified\n", all.size(),
              result.attempted);

  if (config.trace) {
    // Every logged job is composed once, so the service totals of the
    // window divide by the same job count as the layers.
    composeSessions(all, n, layers);
    result.metrics = layerMetrics(layers);
  } else {
    result.metrics = endToEndMetrics(e2e);
  }
  return result;
}

}  // namespace perfbench
