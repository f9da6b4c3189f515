#pragma once
// Line-delimited JSON protocol over the session manager. One request object
// per line in, one response object per line out; transport (stdio pipe, TCP
// socket, in-process call) is the caller's concern — flatdd_serve wires
// both stdin/stdout and a TCP listener to handleLine(), and bench/serve
// calls it in-process.
//
// Requests: {"op": "...", ...}. Operations:
//   ping       -> {"ok":true,"op":"ping"}
//   open       backend?, qubits, seed? (decimal string or number), threads?
//              -> {"ok":true,"session":ID}
//   apply      session, gates:[{"gate":"h","target":0,"controls":[],
//              "params":[]}...] and/or qasm:"...", priority?, deadline_ms?,
//              async?  -> {"ok":true,"applied":N,"total_gates":M}
//              (async:true -> {"ok":true,"job":ID} immediately)
//   sample     session, shots, priority?, deadline_ms?
//              -> {"ok":true,"shots":N,"counts":{"<basis index>":count,...}}
//   amplitude  session, index (< 2^qubits) -> {"ok":true,"re":x,"im":y}
//   report     session -> {"ok":true,"report":{<RunReport JSON>}}
//   checkpoint session -> {"ok":true,"checkpoint":ID}; fails once the
//              session holds max_checkpoints (open option, default 32)
//   restore    session, checkpoint -> {"ok":true}
//   release    session, checkpoint -> {"ok":true,"checkpoints":N} (frees it)
//   close      session -> {"ok":true}
//   job        job, wait_ms? -> {"ok":true,"state":"done","applied":N,...}
//   cancel     job -> {"ok":true,"state":"cancelled"|...}
//   shutdown   -> {"ok":true}; shutdownRequested() turns true
//
// Request context: every request may carry "request_id" (decimal string or
// number; one is generated when absent). The id is echoed in the response
// as a decimal string, stamped onto every trace span the request produces
// (queue wait, job body, session apply/sample, DD/DMAV internals — follow
// it in Perfetto or `trace_summarize --by-request`), and written to the
// slow-request log, so one id joins the client's view to the server's.
// Requests with "timing":true additionally get `queue_wait_us`/`exec_us`
// response fields for ops that ran as queue jobs.
//
// Every error is {"ok":false,"error":"..."} (plus "state" when a job ended
// cancelled/expired/failed). The protocol layer is the trust boundary: every
// numeric field is validated here (integral, non-negative, bounded — e.g.
// qubits <= 63, amplitude index < 2^qubits, shots <= 1e7) before anything is
// cast for the backend, and id strings must parse exactly. Gate/state-
// mutating ops run as queue jobs keyed by the session id, so concurrent
// connections hitting one session are serialized in arrival order while
// different sessions proceed in parallel. handleLine() itself is
// thread-safe. Async job results a client never polls are dropped
// ServiceConfig::asyncJobGraceMs after completion so they don't pin their
// session forever.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "service/session_manager.hpp"

namespace fdd::svc {

class Service {
 public:
  explicit Service(ServiceConfig config = {});

  /// Handles one request line, returns one response line (no trailing \n).
  /// Never throws: malformed input becomes an {"ok":false,...} response.
  std::string handleLine(std::string_view line);

  /// Liveness/readiness snapshot served by the admin listener's /healthz:
  /// status ("ok" / "degraded" when jobs are stalled), uptime, session
  /// count, queue depth split, stall count, and per-worker progress
  /// (busy flag, request id being executed, ms since last heartbeat).
  [[nodiscard]] std::string healthzJson();

  [[nodiscard]] bool shutdownRequested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  [[nodiscard]] SessionManager& sessions() noexcept { return manager_; }

 private:
  struct AsyncJob {
    JobHandle handle;
    std::shared_ptr<Session> session;
    std::shared_ptr<std::size_t> applied;  // written by the job body
    // Set on the first sweep that sees the job terminal; the entry is
    // dropped once this passes so unpolled jobs can't pin sessions.
    std::optional<std::chrono::steady_clock::time_point> expireAt;
  };

  /// `requestId` is an out-param so handleLine can echo it even when
  /// dispatch throws after assigning it.
  std::string dispatch(std::string_view line, std::uint64_t& requestId);
  /// Records a completed synchronous job in the slow-request log.
  void logRequest(const char* op, std::uint64_t requestId,
                  std::uint64_t sessionId, const Job& job,
                  std::uint64_t gates);
  /// Drops terminal async jobs the client stopped polling (grace period
  /// ServiceConfig::asyncJobGraceMs). Called on every dispatch.
  void sweepExpiredJobs();

  SessionManager manager_;
  std::atomic<bool> shutdown_{false};
  const std::chrono::steady_clock::time_point startTime_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> nextRequestId_{1};

  std::mutex jobsMutex_;
  std::unordered_map<std::uint64_t, AsyncJob> jobs_;
  std::uint64_t nextJobId_ = 1;
};

}  // namespace fdd::svc
