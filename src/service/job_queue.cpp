#include "service/job_queue.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fdd::svc {

namespace {

std::uint64_t monotonicNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

obs::Gauge& depthGauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("service.queue_depth");
  return g;
}

obs::Gauge& stashedGauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("service.queue_stashed");
  return g;
}

obs::Histogram& latencyHistogram() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("service.job_latency");
  return h;
}

obs::Histogram& queueWaitHistogram() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("service.queue_wait");
  return h;
}

}  // namespace

const char* toString(JobState s) noexcept {
  switch (s) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Failed:
      return "failed";
    case JobState::Cancelled:
      return "cancelled";
    case JobState::Expired:
      return "expired";
  }
  return "?";
}

JobState Job::state() const {
  const std::lock_guard lock{mutex_};
  return state_;
}

std::string Job::error() const {
  const std::lock_guard lock{mutex_};
  return error_;
}

bool Job::cancel() {
  cancel_.requestCancel();
  const std::lock_guard lock{mutex_};
  return !isTerminal(state_);
}

void Job::wait() const {
  std::unique_lock lock{mutex_};
  done_.wait(lock, [&] { return isTerminal(state_); });
}

bool Job::waitFor(std::chrono::nanoseconds timeout) const {
  std::unique_lock lock{mutex_};
  return done_.wait_for(lock, timeout, [&] { return isTerminal(state_); });
}

double Job::latencySeconds() const {
  const std::lock_guard lock{mutex_};
  return latencySeconds_;
}

double Job::queueWaitSeconds() const {
  const std::lock_guard lock{mutex_};
  return queueWaitSeconds_;
}

double Job::executeSeconds() const {
  const std::lock_guard lock{mutex_};
  return executeSeconds_;
}

JobQueue::JobQueue(unsigned workers) {
  if (workers == 0) {
    workers = 1;
  }
  workerSlots_ = std::make_unique<WorkerSlot[]>(workers);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
}

JobQueue::~JobQueue() { shutdown(); }

JobHandle JobQueue::submit(std::function<void(const par::CancelToken&)> fn,
                           JobOptions opts, std::uint64_t orderKey) {
  auto job = std::make_shared<Job>();
  job->fn_ = std::move(fn);
  job->deadline_ = opts.deadline;
  job->token_ = job->cancel_.token(opts.deadline);
  job->orderKey_ = orderKey;
  job->requestId_ = opts.requestId;
  job->label_ = opts.label;
  job->submitNs_ = monotonicNs();
  job->submitTraceNs_ = obs::nowNs();

  {
    const std::lock_guard lock{mutex_};
    if (shutdown_) {
      throw std::runtime_error("JobQueue::submit: queue is shut down");
    }
    Item item{opts.priority, nextSeq_++, job};
    if (orderKey == 0) {
      runnable_.push(std::move(item));
    } else {
      KeyLane& lane = lanes_[orderKey];
      job->orderSeq_ = lane.nextTicket++;
      if (job->orderSeq_ == lane.servingTicket) {
        runnable_.push(std::move(item));
      } else {
        // A predecessor with this key is still pending; park the job so no
        // worker blocks on it. advanceKeyLocked() promotes it later.
        lane.stash.emplace(job->orderSeq_, std::move(item));
        ++stashed_;
      }
    }
    updateDepthGaugesLocked();
  }
  ready_.notify_one();
  return job;
}

std::size_t JobQueue::depth() const {
  const std::lock_guard lock{mutex_};
  return runnable_.size() + stashed_;
}

JobQueue::Stats JobQueue::stats() const {
  const std::lock_guard lock{mutex_};
  return Stats{runnable_.size(), stashed_, running_.size()};
}

std::vector<JobHandle> JobQueue::runningJobs() const {
  const std::lock_guard lock{mutex_};
  std::vector<JobHandle> jobs;
  jobs.reserve(running_.size());
  for (const auto& [ptr, handle] : running_) {
    jobs.push_back(handle);
  }
  return jobs;
}

JobQueue::WorkerProgress JobQueue::workerProgress(unsigned worker) const {
  WorkerProgress p;
  if (worker >= threads_.size()) {
    return p;
  }
  const WorkerSlot& slot = workerSlots_[worker];
  p.lastBeatNs = slot.lastBeatNs.load(std::memory_order_relaxed);
  p.requestId = slot.requestId.load(std::memory_order_relaxed);
  p.busy = slot.busy.load(std::memory_order_relaxed);
  return p;
}

void JobQueue::shutdown() {
  std::vector<JobHandle> orphans;
  {
    const std::lock_guard lock{mutex_};
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    while (!runnable_.empty()) {
      orphans.push_back(runnable_.top().job);
      runnable_.pop();
    }
    for (auto& [key, lane] : lanes_) {
      for (auto& [ticket, item] : lane.stash) {
        orphans.push_back(item.job);
      }
      lane.stash.clear();
    }
    stashed_ = 0;
    updateDepthGaugesLocked();
  }
  ready_.notify_all();
  for (const JobHandle& job : orphans) {
    finish(job, JobState::Cancelled, {});
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void JobQueue::workerLoop(unsigned worker) {
  obs::setThreadName("svc-worker");
  WorkerSlot& slot = workerSlots_[worker];
  for (;;) {
    JobHandle job;
    {
      std::unique_lock lock{mutex_};
      ready_.wait(lock, [&] { return shutdown_ || !runnable_.empty(); });
      if (shutdown_) {
        return;
      }
      job = runnable_.top().job;
      runnable_.pop();
      running_.emplace(job.get(), job);
      updateDepthGaugesLocked();
    }
    slot.lastBeatNs.store(monotonicNs(), std::memory_order_relaxed);
    slot.requestId.store(job->requestId_, std::memory_order_relaxed);
    slot.busy.store(true, std::memory_order_relaxed);

    // Lazy cancellation/expiry: queued jobs are not removed eagerly, they
    // are skipped here when popped.
    if (job->token_.cancelRequested()) {
      finish(job, JobState::Cancelled, {});
    } else if (job->deadline_.has_value() &&
               par::CancelToken::Clock::now() >= *job->deadline_) {
      finish(job, JobState::Expired, {});
    } else {
      const std::uint64_t startNs = monotonicNs();
      job->startNs_.store(startNs, std::memory_order_relaxed);
      {
        const std::lock_guard lock{job->mutex_};
        job->state_ = JobState::Running;
      }
      // Request-context scope: every span the body records (service.job,
      // session_apply, dd.apply, dmav.replay, ...) carries this job's
      // request id. The queue-wait span covers submit→start and is
      // attributed to the same request.
      obs::RequestIdScope requestScope{job->requestId_};
      obs::recordSpan("service.queue_wait", job->submitTraceNs_,
                      obs::nowNs() - job->submitTraceNs_, job->requestId_);
      queueWaitHistogram().record(startNs - job->submitNs_);
      try {
        FDD_TIMED_SCOPE("service.job");
        job->fn_(job->token_);
        finish(job, JobState::Done, {});
      } catch (const CancelledError&) {
        const bool expired =
            !job->token_.cancelRequested() && job->deadline_.has_value() &&
            par::CancelToken::Clock::now() >= *job->deadline_;
        finish(job, expired ? JobState::Expired : JobState::Cancelled, {});
      } catch (const std::exception& e) {
        finish(job, JobState::Failed, e.what());
      } catch (...) {
        finish(job, JobState::Failed, "unknown exception");
      }
    }

    slot.busy.store(false, std::memory_order_relaxed);
    slot.requestId.store(0, std::memory_order_relaxed);
    slot.lastBeatNs.store(monotonicNs(), std::memory_order_relaxed);
  }
}

void JobQueue::finish(const JobHandle& job, JobState state,
                      const std::string& error) {
  const std::uint64_t endNs = monotonicNs();
  const std::uint64_t latencyNs = endNs - job->submitNs_;
  const std::uint64_t startNs = job->startNs_.load(std::memory_order_relaxed);
  // Leave the running set before waiters can observe the terminal state, so
  // a scan after wait() returns never sees the finished job as running.
  {
    const std::lock_guard lock{mutex_};
    running_.erase(job.get());
  }
  std::function<void(const par::CancelToken&)> fn;
  {
    const std::lock_guard lock{job->mutex_};
    job->state_ = state;
    job->error_ = error;
    job->latencySeconds_ = static_cast<double>(latencyNs) * 1e-9;
    // Jobs skipped at pop time (cancelled/expired before running) spent
    // their whole life queued: wait == latency, execute == 0.
    job->queueWaitSeconds_ =
        static_cast<double>(startNs != 0 ? startNs - job->submitNs_
                                         : latencyNs) *
        1e-9;
    job->executeSeconds_ =
        startNs != 0 ? static_cast<double>(endNs - startNs) * 1e-9 : 0;
    fn = std::move(job->fn_);
    job->fn_ = nullptr;
  }
  // A terminal Job must not retain its closure: handles can outlive the
  // queue slot indefinitely (Service::jobs_), and the closure holds the
  // Session shared_ptr — i.e. a full 2^n state. Destroy it here, outside
  // the job mutex (releasing a Session can be arbitrarily heavy).
  fn = nullptr;
  latencyHistogram().record(latencyNs);
  job->done_.notify_all();
  if (job->orderKey_ != 0) {
    bool promoted = false;
    {
      const std::lock_guard lock{mutex_};
      if (!shutdown_) {
        advanceKeyLocked(job);
        promoted = true;
      }
    }
    if (promoted) {
      ready_.notify_one();
    }
  }
}

void JobQueue::advanceKeyLocked(const JobHandle& job) {
  const auto laneIt = lanes_.find(job->orderKey_);
  if (laneIt == lanes_.end()) {
    return;
  }
  KeyLane& lane = laneIt->second;
  lane.servingTicket = job->orderSeq_ + 1;
  if (const auto it = lane.stash.find(lane.servingTicket);
      it != lane.stash.end()) {
    runnable_.push(std::move(it->second));
    lane.stash.erase(it);
    --stashed_;
    updateDepthGaugesLocked();
  } else if (lane.nextTicket == lane.servingTicket && lane.stash.empty()) {
    // Lane fully drained; drop it so idle sessions don't accumulate state.
    lanes_.erase(laneIt);
  }
}

void JobQueue::updateDepthGaugesLocked() const {
  // Split on purpose: `queue_depth` is the schedulable backlog a worker
  // could pick up right now; stashed jobs are blocked behind a per-key
  // predecessor and would mask real starvation if folded in.
  depthGauge().set(static_cast<double>(runnable_.size()));
  stashedGauge().set(static_cast<double>(stashed_));
}

}  // namespace fdd::svc
