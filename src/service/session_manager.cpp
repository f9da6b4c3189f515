#include "service/session_manager.hpp"

#include "obs/metrics.hpp"

namespace fdd::svc {

namespace {

obs::Gauge& sessionsGauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("service.sessions");
  return g;
}

}  // namespace

SessionManager::SessionManager(ServiceConfig config)
    : config_{std::move(config)},
      planCache_{config_.planCacheCapacity},
      slowLog_{config_.slowLogPath, config_.slowRequestMs,
               config_.slowLogMaxPerSec},
      queue_{config_.workers},
      watchdog_{queue_, &slowLog_,
                Watchdog::Config{config_.watchdogIntervalMs,
                                 config_.watchdogGraceMs,
                                 config_.watchdogStallMs}} {}

SessionManager::~SessionManager() {
  // The watchdog reads the queue's running set; stop it before the workers
  // so shutdown never races a scan.
  watchdog_.stop();
  // Stop the workers next: no job may touch a session or the shared plan
  // cache while the table below is torn down.
  queue_.shutdown();
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions;
  {
    const std::lock_guard lock{mutex_};
    sessions = std::move(sessions_);
  }
  // Session backends unpin their plan-cache entries in their destructors,
  // which must run before planCache_ dies — hence explicitly here.
  sessions.clear();
}

std::shared_ptr<Session> SessionManager::open(SessionConfig config) {
  std::uint64_t id = 0;
  {
    const std::lock_guard lock{mutex_};
    id = nextId_++;
  }
  // Construct outside the lock — backend creation can be expensive.
  auto session =
      std::make_shared<Session>(id, std::move(config), sharedPlanCache());
  {
    const std::lock_guard lock{mutex_};
    sessions_.emplace(id, session);
    sessionsGauge().set(static_cast<double>(sessions_.size()));
  }
  FDD_OBS_COUNT("service.sessions_opened");
  return session;
}

std::shared_ptr<Session> SessionManager::find(std::uint64_t id) const {
  const std::lock_guard lock{mutex_};
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionManager::close(std::uint64_t id) {
  std::shared_ptr<Session> victim;
  {
    const std::lock_guard lock{mutex_};
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return false;
    }
    victim = std::move(it->second);
    sessions_.erase(it);
    sessionsGauge().set(static_cast<double>(sessions_.size()));
  }
  FDD_OBS_COUNT("service.sessions_closed");
  // If no queued job holds another reference this destroys the backend now,
  // on the caller's thread; otherwise the last finishing job does it.
  victim.reset();
  return true;
}

std::size_t SessionManager::sessionCount() const {
  const std::lock_guard lock{mutex_};
  return sessions_.size();
}

JobHandle SessionManager::submit(
    const std::shared_ptr<Session>& session,
    std::function<void(Session&, const par::CancelToken&)> fn,
    JobOptions opts) {
  return queue_.submit(
      [session, fn = std::move(fn)](const par::CancelToken& token) {
        fn(*session, token);
      },
      opts, session->id());
}

}  // namespace fdd::svc
