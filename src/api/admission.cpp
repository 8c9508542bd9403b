#include "api/admission.hpp"

#include <utility>

namespace spivar::api {

AdmissionController::AdmissionController(AdmissionConfig config, Clock clock)
    : config_(config), clock_(std::move(clock)) {
  if (config_.max_miss_rate < 0.0) config_.max_miss_rate = 0.0;
  if (config_.window <= std::chrono::milliseconds{0}) {
    config_.window = std::chrono::milliseconds{1};
  }
  if (config_.retry_after < std::chrono::milliseconds{0}) {
    config_.retry_after = std::chrono::milliseconds{0};
  }
}

AdmissionDecision AdmissionController::admit(const ExecutorStats& stats) {
  AdmissionDecision decision;
  if (config_.max_miss_rate >= 1.0) {
    // Shedding disabled: skip the clock and the lock's contention entirely
    // on the common (unconfigured) path — admit() still counts verdicts.
    std::lock_guard lock{mutex_};
    ++admitted_;
    return decision;
  }
  const auto now = clock_();
  std::lock_guard lock{mutex_};
  if (!primed_ || now - window_start_ >= config_.window) {
    // Window rollover: the deltas accumulated so far become history and
    // the cumulative counters re-baseline. The first request of a fresh
    // window therefore projects from an empty window and admits (below
    // min_samples) — one admitted probe per window is what lets the
    // controller notice the queue has drained.
    base_completed_ = stats.completed;
    base_misses_ = stats.deadline_misses;
    window_start_ = now;
    primed_ = true;
  }
  const std::uint64_t completed = stats.completed - base_completed_;
  const std::uint64_t misses = stats.deadline_misses - base_misses_;
  if (completed >= config_.min_samples) {
    decision.projected_miss_rate =
        static_cast<double>(misses) / static_cast<double>(completed);
    if (decision.projected_miss_rate >= config_.max_miss_rate) {
      decision.admitted = false;
      decision.retry_after = config_.retry_after;
      ++rejected_;
      return decision;
    }
  }
  ++admitted_;
  return decision;
}

std::uint64_t AdmissionController::admitted() const noexcept {
  std::lock_guard lock{mutex_};
  return admitted_;
}

std::uint64_t AdmissionController::rejected() const noexcept {
  std::lock_guard lock{mutex_};
  return rejected_;
}

}  // namespace spivar::api
