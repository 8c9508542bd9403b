// Holds every worker of a thread pool on a gate, so nothing submitted
// behind it can run until release() — how a test tells a slot answered on
// the submitting thread from one a worker evaluated.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "api/executor.hpp"

namespace spivar {

class ParkedPool {
 public:
  /// Parks `pool`'s workers and returns once every one of them is blocked.
  explicit ParkedPool(api::Executor& pool) {
    // The gate tasks own what they touch: a worker may still be leaving
    // wait() after this object is gone.
    auto parked = std::make_shared<std::atomic<std::size_t>>(0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < pool.workers(); ++i) {
      tasks.push_back([parked, gate = gate_] {
        parked->fetch_add(1);
        gate.wait();
      });
    }
    pool.submit(std::move(tasks), {});
    while (parked->load() < pool.workers()) std::this_thread::yield();
  }
  /// Releases on destruction, so a failed assertion cannot hang the pool's
  /// join. Declare it after the pool (or the session owning the pool).
  ~ParkedPool() { release(); }
  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;

  void release() {
    if (released_) return;
    released_ = true;
    open_.set_value();
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  bool released_ = false;
};

}  // namespace spivar
