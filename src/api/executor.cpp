#include "api/executor.hpp"

#include <utility>

namespace spivar::api {

namespace {
/// The pool whose worker_loop owns this thread, if any — how run()/submit()
/// recognise nested fan-out issued from inside one of their own tasks.
thread_local const void* tls_worker_pool = nullptr;
}  // namespace

std::optional<Priority> parse_priority(std::string_view name) {
  if (name == "low") return Priority::kLow;
  if (name == "normal") return Priority::kNormal;
  if (name == "high") return Priority::kHigh;
  return std::nullopt;
}

void SerialExecutor::run(std::vector<std::function<void()>> tasks, SubmitOptions options) {
  // Inline execution still keeps the deadline telemetry honest: a deadline
  // is measured from submission, so a long serial batch records its misses
  // exactly like a queued one.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (options.deadline) deadline = std::chrono::steady_clock::now() + *options.deadline;
  for (auto& task : tasks) {
    task();
    recorder_.record(deadline);
  }
}

void SerialExecutor::submit(std::vector<std::function<void()>> tasks, SubmitOptions options) {
  // No background thread: submission order is execution order, and every
  // slot has landed by the time submit returns.
  run(std::move(tasks), options);
}

ThreadPoolExecutor::ThreadPoolExecutor(std::size_t workers) {
  std::size_t count = workers != 0 ? workers : std::thread::hardware_concurrency();
  if (count == 0) count = 1;
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard lock{mutex_};
    stop_ = true;
  }
  work_cv_.notify_all();
  // Workers drain every queued batch before exiting, so fire-and-forget
  // submissions still complete.
  for (std::thread& thread : threads_) thread.join();
}

bool ThreadPoolExecutor::BatchOrder::operator()(const std::shared_ptr<TaskBatch>& a,
                                                const std::shared_ptr<TaskBatch>& b) const noexcept {
  if (a->band != b->band) return a->band > b->band;  // highest band first
  if (a->deadline.has_value() != b->deadline.has_value()) {
    return a->deadline.has_value();  // any deadline beats none (EDF band)
  }
  if (a->deadline && b->deadline && *a->deadline != *b->deadline) {
    return *a->deadline < *b->deadline;  // earliest deadline first
  }
  return a->seq < b->seq;  // FIFO tie-break
}

void ThreadPoolExecutor::refresh_top_band() {
  top_queued_band_.store(queue_.empty() ? -1 : (*queue_.begin())->band,
                         std::memory_order_relaxed);
}

void ThreadPoolExecutor::enqueue(std::shared_ptr<TaskBatch> batch) {
  {
    std::lock_guard lock{mutex_};
    batch->seq = next_seq_++;
    TaskBatch& queued = *batch;
    queued.slot = queue_.insert(std::move(batch));
    refresh_top_band();
  }
  work_cv_.notify_all();
}

std::optional<std::size_t> ThreadPoolExecutor::claim(TaskBatch& batch) {
  const std::size_t index = batch.cursor.fetch_add(1, std::memory_order_relaxed);
  if (index >= batch.tasks.size()) return std::nullopt;
  if (index + 1 == batch.tasks.size()) {
    // The last task is claimed: nothing is left for another thread, so
    // retire the batch now. queue_ thus holds only batches with unclaimed
    // work. mutex_ is never held together with batch.mutex.
    std::lock_guard lock{mutex_};
    queue_.erase(batch.slot);
    refresh_top_band();
  }
  return index;
}

void ThreadPoolExecutor::help(TaskBatch& batch) {
  while (const auto index = claim(batch)) {
    batch.tasks[*index]();
    if (batch.stats) batch.stats->record(batch.deadline);
    finish_one(batch);
  }
}

void ThreadPoolExecutor::help_until_preempted(TaskBatch& batch) {
  for (;;) {
    // Band preemption at task granularity: a strictly higher-band batch in
    // the queue — an explicit higher priority, or a top-level request while
    // this batch is nested fan-out — pulls this worker away between tasks
    // (a relaxed load — the hint may be momentarily stale, which only costs
    // one lock round trip in worker_loop). The abandoned batch keeps its
    // queue slot and is resumed once the higher band drains. Deadlines
    // never preempt: EDF orders batch pickup within a band only.
    if (top_queued_band_.load(std::memory_order_relaxed) > batch.band) {
      return;
    }
    const auto index = claim(batch);
    if (!index) return;
    batch.tasks[*index]();
    if (batch.stats) batch.stats->record(batch.deadline);
    finish_one(batch);
  }
}

void ThreadPoolExecutor::finish_one(TaskBatch& batch) {
  if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard guard{batch.mutex};
      batch.finished = true;
    }
    batch.done.notify_all();
  }
}

void ThreadPoolExecutor::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::shared_ptr<TaskBatch> batch;
    {
      std::unique_lock lock{mutex_};
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and nothing left to drain
      // Best batch under the scheduling order: band, then EDF, then FIFO.
      // The batch stays queued until its last task is claimed, so several
      // workers gang up on it.
      batch = *queue_.begin();
    }
    // Claim tasks outside the queue lock — the self-scheduling hot loop is
    // one fetch_add per task (plus one relaxed preemption-hint load).
    help_until_preempted(*batch);
  }
}

void ThreadPoolExecutor::run(std::vector<std::function<void()>> tasks, SubmitOptions options) {
  if (tasks.empty()) return;
  // A run() issued from one of this pool's own tasks is nested fan-out: it
  // lands in the sub-band below independent batches of the same priority
  // (see TaskBatch::band) — the caller drives it regardless.
  auto batch = std::make_shared<TaskBatch>(std::move(tasks), options, tls_worker_pool == this);
  batch->stats = &recorder_;
  enqueue(batch);
  // The caller self-schedules on its own batch alongside the workers —
  // regardless of the batch's priority, so a nested run() from inside a
  // pool task always makes progress, even when every worker is blocked in
  // a run() of its own.
  help(*batch);
  std::unique_lock lock{batch->mutex};
  batch->done.wait(lock, [&] { return batch->finished; });
}

void ThreadPoolExecutor::submit(std::vector<std::function<void()>> tasks, SubmitOptions options) {
  if (tasks.empty()) return;
  auto batch = std::make_shared<TaskBatch>(std::move(tasks), options, tls_worker_pool == this);
  batch->stats = &recorder_;
  enqueue(std::move(batch));
}

std::size_t ThreadPoolExecutor::queued_batches() const {
  std::lock_guard lock{mutex_};
  return queue_.size();
}

std::string ThreadPoolExecutor::name() const {
  return "threads:" + std::to_string(threads_.size());
}

std::shared_ptr<Executor> make_executor(std::size_t jobs) {
  if (jobs <= 1) return std::make_shared<SerialExecutor>();
  return std::make_shared<ThreadPoolExecutor>(jobs);
}

}  // namespace spivar::api
