// Execution policy for the session's batch surface.
//
// Every batch entry point (call_batch, submit, and compare's strategy
// fan-out) splits its work into independent tasks and hands them to the
// session's Executor. Tasks are deterministic by seed and
// write to disjoint result slots, so the outcome is bit-identical whether
// they run serially or across a pool — parallelism is purely a wall-clock
// decision, asserted by the tests.
//
//   api::Session fast{api::make_executor(4)};   // thread pool, 4 workers
//   api::Session exact;                         // serial (the default)
//
// The pool is *self-scheduling*: a batch is one queue node with an atomic
// cursor, and every participating thread claims the next task index with a
// single fetch_add — no per-task queue traffic, and a skewed batch (one
// giant task next to many small ones) never serializes behind a static
// partition. The thread calling run() participates in its own batch, which
// also makes nested dispatch (a compare slot fanning its strategy jobs onto
// the same pool) deadlock-free by construction.
//
// Scheduling is priority + deadline aware: every run/submit carries
// SubmitOptions{priority, deadline}. Workers always pick the best queued
// batch — higher priority band first, earliest deadline within a band (EDF;
// no deadline sorts last), FIFO on ties — and between tasks they yield to a
// strictly higher band, so a high-priority task overtakes a queued (or even
// in-flight) skewed batch instead of waiting behind it. Deadlines order
// work, they never cancel it; a task already running is never interrupted.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace spivar::api {

/// Scheduling band of one submitted batch; kHigh drains first.
enum class Priority : std::uint8_t { kLow, kNormal, kHigh };

[[nodiscard]] constexpr const char* to_string(Priority priority) noexcept {
  switch (priority) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "?";
}

/// Canonical name back to the band; nullopt for unknown names.
[[nodiscard]] std::optional<Priority> parse_priority(std::string_view name);

/// Per-submission scheduling options, uniform across run() and submit().
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Soft deadline relative to submission: within a priority band, batches
  /// order earliest-deadline-first (no deadline sorts after any deadline).
  /// Purely an ordering hint — late work still runs to completion.
  std::optional<std::chrono::milliseconds> deadline;

  friend bool operator==(const SubmitOptions&, const SubmitOptions&) = default;
};

/// Deadline-miss telemetry, recorded per task at completion (ROADMAP:
/// "deadlines order work but nothing records how late a batch actually
/// ran"). A task misses when it finishes after its submission's deadline;
/// lateness is completion minus deadline. Deadline-free tasks only bump
/// `completed`. Each Executor::stats() call returns one consistent
/// snapshot: every completion it counts carries that task's miss and
/// lateness, so `deadline_misses <= completed` and miss_rate() stays in
/// [0, 1]. Result-cache hits answered inside Session::submit never become
/// tasks, so they are not counted.
struct ExecutorStats {
  std::uint64_t completed = 0;        ///< tasks run to completion
  std::uint64_t deadline_misses = 0;  ///< tasks finished past their deadline
  std::chrono::microseconds max_lateness{0};    ///< worst single-task lateness
  std::chrono::microseconds total_lateness{0};  ///< summed over every miss

  /// Misses per completed task (0 when nothing completed yet).
  [[nodiscard]] double miss_rate() const noexcept {
    return completed == 0 ? 0.0
                          : static_cast<double>(deadline_misses) / static_cast<double>(completed);
  }
};

namespace detail {

/// Accumulator behind Executor::stats(); shared by the serial and pool
/// executors so telemetry is uniform across execution policies. One mutex
/// guards the whole ExecutorStats, so a task's completion and its miss land
/// together and a snapshot never sees one without the other (separate
/// counters let a reader count a completion before its miss). The lock is
/// taken once per task, which costs far less than any task.
class ExecutorStatsRecorder {
 public:
  /// Records one task completion against the (absolute) deadline of its
  /// submission; nullopt marks deadline-free work.
  void record(const std::optional<std::chrono::steady_clock::time_point>& deadline) noexcept {
    // Completion time is read before the lock so waiting for it never adds
    // lateness.
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard lock(mutex_);
    ++stats_.completed;
    if (!deadline || now <= *deadline) return;
    const auto late = std::chrono::duration_cast<std::chrono::microseconds>(now - *deadline);
    ++stats_.deadline_misses;
    stats_.total_lateness += late;
    stats_.max_lateness = std::max(stats_.max_lateness, late);
  }

  [[nodiscard]] ExecutorStats snapshot() const noexcept {
    const std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  mutable std::mutex mutex_;
  ExecutorStats stats_;
};

}  // namespace detail

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs every task to completion before returning, in any order, possibly
  /// concurrently. Tasks must be independent and must not throw (the session
  /// wraps its work in the no-throw boundary before submitting). Safe to
  /// call from within a task running on this executor (nested batches make
  /// progress on the calling thread). The caller participates in its own
  /// batch regardless of priority; `options` governs how idle workers pick
  /// it against other queued work.
  virtual void run(std::vector<std::function<void()>> tasks, SubmitOptions options) = 0;

  /// Enqueues the tasks and returns immediately; completion is observable
  /// only through the tasks' own side effects (the async batch surface
  /// counts landed slots). A serial executor has no background thread, so
  /// its submit degenerates to inline execution.
  virtual void submit(std::vector<std::function<void()>> tasks, SubmitOptions options) = 0;

  // Default-options conveniences (normal priority, no deadline).
  void run(std::vector<std::function<void()>> tasks) { run(std::move(tasks), {}); }
  void submit(std::vector<std::function<void()>> tasks) { submit(std::move(tasks), {}); }

  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Deadline-miss telemetry over every task this executor has completed.
  [[nodiscard]] virtual ExecutorStats stats() const noexcept = 0;
};

/// Runs tasks inline on the calling thread, in submission order. With no
/// queue there is nothing to reorder, so SubmitOptions are accepted and
/// ignored.
class SerialExecutor final : public Executor {
 public:
  using Executor::run;
  using Executor::submit;
  void run(std::vector<std::function<void()>> tasks, SubmitOptions options) override;
  void submit(std::vector<std::function<void()>> tasks, SubmitOptions options) override;
  [[nodiscard]] std::size_t workers() const noexcept override { return 1; }
  [[nodiscard]] std::string name() const override { return "serial"; }
  [[nodiscard]] ExecutorStats stats() const noexcept override { return recorder_.snapshot(); }

 private:
  detail::ExecutorStatsRecorder recorder_;
};

/// Persistent worker threads self-scheduling over queued batches. run()
/// blocks until its whole batch has completed (the caller helps execute it);
/// submit() is fire-and-forget; concurrent batches from different threads
/// interleave safely. Idle workers always claim from the best queued batch
/// (band — priority, top-level over nested fan-out — then EDF, then FIFO).
/// The destructor drains every queued batch first.
class ThreadPoolExecutor final : public Executor {
 public:
  /// `workers == 0` uses the hardware concurrency (at least one thread).
  explicit ThreadPoolExecutor(std::size_t workers = 0);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  using Executor::run;
  using Executor::submit;
  void run(std::vector<std::function<void()>> tasks, SubmitOptions options) override;
  void submit(std::vector<std::function<void()>> tasks, SubmitOptions options) override;
  [[nodiscard]] std::size_t workers() const noexcept override { return threads_.size(); }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] ExecutorStats stats() const noexcept override { return recorder_.snapshot(); }

  /// Batches still holding unclaimed tasks — the queue's length. A batch
  /// leaves the queue when its last task is claimed, so this never counts
  /// finished work.
  [[nodiscard]] std::size_t queued_batches() const;

 private:
  struct TaskBatch;

  /// Strict weak order: higher band first (priority, top-level over nested
  /// within it), then earliest deadline (none sorts last), then submission
  /// order — the queue's multiset comparator.
  struct BatchOrder {
    bool operator()(const std::shared_ptr<TaskBatch>& a,
                    const std::shared_ptr<TaskBatch>& b) const noexcept;
  };
  using Queue = std::multiset<std::shared_ptr<TaskBatch>, BatchOrder>;

  /// One enqueued batch. Threads claim task indexes through `cursor`
  /// (fetch_add) — the self-scheduling loop — and the last finisher
  /// signals `done`. Scheduling rank (band, deadline, seq) is fixed at
  /// enqueue time.
  struct TaskBatch {
    TaskBatch(std::vector<std::function<void()>> work, SubmitOptions options, bool nested)
        : tasks(std::move(work)),
          remaining(tasks.size()),
          priority(options.priority),
          band(static_cast<int>(options.priority) * 2 + (nested ? 0 : 1)) {
      if (options.deadline) deadline = std::chrono::steady_clock::now() + *options.deadline;
    }
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> cursor{0};     ///< next unclaimed task index
    std::atomic<std::size_t> remaining;     ///< tasks not yet finished
    std::mutex mutex;                       ///< guards finished, for run()'s wait
    std::condition_variable done;
    bool finished = false;

    Priority priority = Priority::kNormal;
    /// Scheduling band: each priority splits into a top-level sub-band and,
    /// below it, a nested sub-band for fan-out run()/submit() issued from
    /// inside a pool task (e.g. compare's per-order jobs). A nested batch
    /// already owns its caller as a helper; ranking it under independent
    /// top-level batches of the same priority stops a wide fan-out from
    /// absorbing every worker and starving later small requests — the
    /// priority inversion the pipelined serve path exposed. Explicit
    /// priorities still dominate: nested kHigh outranks top-level kNormal.
    int band = 0;
    std::optional<std::chrono::steady_clock::time_point> deadline;  ///< absolute, EDF key
    std::uint64_t seq = 0;  ///< FIFO tie-break within (band, deadline)
    /// Owning executor's telemetry sink; every finished task records its
    /// completion (and lateness against `deadline`) here.
    detail::ExecutorStatsRecorder* stats = nullptr;
    /// Position in queue_, set at enqueue; erased when the last task is
    /// claimed.
    Queue::iterator slot;
  };

  /// Assigns the FIFO tie-break sequence under the queue lock and inserts.
  void enqueue(std::shared_ptr<TaskBatch> batch);
  /// Claims the next task index of `batch`; nullopt once none is left. The
  /// thread that claims the last task retires the batch from queue_.
  std::optional<std::size_t> claim(TaskBatch& batch);
  /// Claims and runs tasks from `batch` until its cursor is exhausted.
  /// run()'s caller uses this: it must drive its own batch to completion.
  void help(TaskBatch& batch);
  /// Worker variant of help(): additionally yields between tasks when a
  /// strictly higher-band batch arrives in the queue, so a high-priority
  /// submission — or a top-level request behind a nested fan-out — overtakes
  /// an in-flight lower band at task granularity (the abandoned batch stays
  /// queued and is resumed afterwards).
  void help_until_preempted(TaskBatch& batch);
  /// Marks one task finished; the last one signals completion.
  static void finish_one(TaskBatch& batch);
  void worker_loop();
  /// Recomputes top_queued_band_ from the queue head; call with mutex_.
  void refresh_top_band();

  std::vector<std::thread> threads_;
  mutable std::mutex mutex_;         ///< guards queue_, stop_ and next_seq_
  std::condition_variable work_cv_;  ///< signals queued work / shutdown
  /// Best batch first; only batches with unclaimed tasks.
  Queue queue_;
  /// Band of the queue's best batch (-1 when empty) — the relaxed hint
  /// workers poll between tasks to detect band preemption without a lock.
  std::atomic<int> top_queued_band_{-1};
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  detail::ExecutorStatsRecorder recorder_;
};

/// Policy by worker count: `jobs <= 1` is the serial executor, anything
/// above a `ThreadPoolExecutor{jobs}` — the CLI's `--jobs N` in one place.
[[nodiscard]] std::shared_ptr<Executor> make_executor(std::size_t jobs);

}  // namespace spivar::api
