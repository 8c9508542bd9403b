// Executor contract and parallel-vs-serial determinism of the session's
// envelope batch surface (call_batch / submit): a ThreadPoolExecutor must
// produce results bit-identical to SerialExecutor (every request is
// deterministic by seed and writes its own slot), so parallelism is purely
// a wall-clock decision.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/api.hpp"
#include "envelope_helpers.hpp"

namespace spivar {
namespace {

using api::Session;

// --- executor contract -------------------------------------------------------

TEST(Executor, SerialRunsInSubmissionOrder) {
  api::SerialExecutor executor;
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  executor.run(std::move(tasks));
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, ThreadPoolRunsEveryTaskToCompletion) {
  api::ThreadPoolExecutor executor{4};
  EXPECT_EQ(executor.workers(), 4u);
  EXPECT_EQ(executor.name(), "threads:4");

  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back([&count] { ++count; });
  executor.run(std::move(tasks));
  EXPECT_EQ(count.load(), 100);  // run() is a completion barrier

  // The pool is reusable: a second batch on the same workers.
  std::vector<std::function<void()>> more;
  for (int i = 0; i < 10; ++i) more.push_back([&count] { ++count; });
  executor.run(std::move(more));
  EXPECT_EQ(count.load(), 110);
  executor.run({});  // empty batch is a no-op
}

TEST(Executor, MakeExecutorPicksPolicyByJobCount) {
  EXPECT_EQ(api::make_executor(0)->name(), "serial");
  EXPECT_EQ(api::make_executor(1)->name(), "serial");
  EXPECT_EQ(api::make_executor(3)->name(), "threads:3");
}

// --- executor self-scheduling ------------------------------------------------

TEST(Executor, NestedRunFromWorkerTasksMakesProgress) {
  // Every task of the outer batch performs a nested run() on the same pool.
  // With one worker plus the calling thread, progress is only possible
  // because run() self-schedules on its own batch — a queue-only pool would
  // deadlock here (all workers blocked waiting for subtasks nobody runs).
  api::ThreadPoolExecutor executor{1};
  std::atomic<int> inner{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&executor, &inner] {
      std::vector<std::function<void()>> subtasks;
      for (int j = 0; j < 8; ++j) subtasks.push_back([&inner] { ++inner; });
      executor.run(std::move(subtasks));
    });
  }
  executor.run(std::move(outer));
  EXPECT_EQ(inner.load(), 32);
}

TEST(Executor, FinishedNestedBatchesLeaveTheQueueWhileTopLevelWorkWaits) {
  // The only worker runs the first task of a two-task top-level batch; the
  // second task stays unclaimed, so that batch stays queued throughout.
  // Each nested run() below it claims its only task at once, so each nested
  // batch must leave the queue then — not pile up behind the top-level one.
  api::ThreadPoolExecutor executor{1};
  std::promise<std::size_t> queued;
  std::promise<void> second_ran;
  std::vector<std::function<void()>> top_level;
  top_level.push_back([&executor, &queued] {
    for (int i = 0; i < 1000; ++i) executor.run({[] {}});
    queued.set_value(executor.queued_batches());
  });
  top_level.push_back([&second_ran] { second_ran.set_value(); });
  executor.submit(std::move(top_level));
  EXPECT_EQ(queued.get_future().get(), 1u);
  second_ran.get_future().wait();
  EXPECT_EQ(executor.queued_batches(), 0u);
}

TEST(Executor, SubmitIsFireAndForgetAndDrainsBeforeDestruction) {
  std::atomic<int> count{0};
  {
    api::ThreadPoolExecutor executor{2};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 64; ++i) tasks.push_back([&count] { ++count; });
    executor.submit(std::move(tasks));
    // No barrier here: the destructor drains every queued batch.
  }
  EXPECT_EQ(count.load(), 64);
}

// --- priority / deadline scheduling ------------------------------------------

TEST(ExecutorScheduling, ParsePriorityRoundTrips) {
  EXPECT_EQ(api::parse_priority("low"), api::Priority::kLow);
  EXPECT_EQ(api::parse_priority("normal"), api::Priority::kNormal);
  EXPECT_EQ(api::parse_priority("high"), api::Priority::kHigh);
  EXPECT_FALSE(api::parse_priority("urgent").has_value());
  EXPECT_EQ(std::string{api::to_string(api::Priority::kHigh)}, "high");
}

TEST(ExecutorScheduling, HighPriorityOvertakesQueuedSkewedBatch) {
  // Single worker, held on a gate while work piles up behind it: a big
  // low-priority batch is queued first, then one high-priority task. When
  // the gate opens, the high-priority task must run before any low slot —
  // the FIFO queue of PR 3 would have drained the skewed batch first.
  std::mutex order_mutex;
  std::vector<std::string> order;
  {
    api::ThreadPoolExecutor executor{1};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    executor.submit({[gate] { gate.wait(); }}, {.priority = api::Priority::kHigh});

    std::vector<std::function<void()>> low;
    for (int i = 0; i < 8; ++i) {
      low.push_back([&order_mutex, &order] {
        std::lock_guard lock{order_mutex};
        order.push_back("low");
      });
    }
    executor.submit(std::move(low), {.priority = api::Priority::kLow});
    executor.submit({[&order_mutex, &order] {
                      std::lock_guard lock{order_mutex};
                      order.push_back("high");
                    }},
                    {.priority = api::Priority::kHigh});
    release.set_value();
  }  // destructor drains the queue

  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order.front(), "high");
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_EQ(order[i], "low") << i;
}

TEST(ExecutorScheduling, EarlierDeadlineDrainsFirstWithinAPriorityBand) {
  // Same single-worker gate; three normal-priority batches submitted in the
  // order (late deadline, early deadline, no deadline) must drain EDF:
  // early, late, none.
  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&order_mutex, &order](const char* tag) {
    return [&order_mutex, &order, tag] {
      std::lock_guard lock{order_mutex};
      order.emplace_back(tag);
    };
  };
  {
    api::ThreadPoolExecutor executor{1};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    executor.submit({[gate] { gate.wait(); }}, {.priority = api::Priority::kHigh});

    executor.submit({record("late")}, {.deadline = std::chrono::milliseconds{60'000}});
    executor.submit({record("early")}, {.deadline = std::chrono::milliseconds{1'000}});
    executor.submit({record("none")}, {});  // no deadline sorts after any deadline
    release.set_value();
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "early");
  EXPECT_EQ(order[1], "late");
  EXPECT_EQ(order[2], "none");
}

TEST(ExecutorScheduling, NestedFanOutYieldsToLaterTopLevelRequests) {
  // Fan-out submitted from inside a pool task lands in the sub-band below
  // independent batches of the same priority, so a top-level request that
  // arrives later still overtakes the queued nested work — the starvation
  // the pipelined serve path exposed (a wide compare fan-out absorbing
  // every worker while one-task simulates waited behind it). Explicit
  // priorities keep dominating: nested kHigh beats top-level kNormal.
  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&order_mutex, &order](const char* tag) {
    return [&order_mutex, &order, tag] {
      std::lock_guard lock{order_mutex};
      order.emplace_back(tag);
    };
  };
  {
    api::ThreadPoolExecutor executor{1};
    std::promise<void> nested_queued;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    // Runs on the pool's only worker: batches submitted inside are nested.
    executor.submit({[&executor, &nested_queued, gate, record] {
      executor.submit({record("nested-normal")});
      executor.submit({record("nested-high")}, {.priority = api::Priority::kHigh});
      nested_queued.set_value();
      gate.wait();
    }});
    nested_queued.get_future().wait();
    executor.submit({record("top-normal")});  // arrives last, from outside
    release.set_value();
  }  // destructor drains the queue
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "nested-high");  // explicit priority outranks any band split
  EXPECT_EQ(order[1], "top-normal");   // top-level beats nested within a priority
  EXPECT_EQ(order[2], "nested-normal");
}

TEST(ExecutorScheduling, SerialExecutorAcceptsOptionsUnchanged) {
  api::SerialExecutor executor;
  std::vector<int> order;
  executor.submit({[&order] { order.push_back(1); }}, {.priority = api::Priority::kLow});
  executor.run({[&order] { order.push_back(2); }},
               {.priority = api::Priority::kHigh,
                .deadline = std::chrono::milliseconds{5}});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // inline, submission order — options are inert
  EXPECT_EQ(order[1], 2);
}

TEST(ExecutorScheduling, PrioritizedSessionBatchesStayBitIdentical) {
  // Scheduling options move work around in time, never in value: a
  // high-priority deadline batch returns exactly the serial results.
  Session serial;
  Session pooled{api::make_executor(4)};
  const auto serial_model = serial.load_builtin("fig2");
  const auto pooled_model = pooled.load_builtin("fig2");
  ASSERT_TRUE(serial_model.ok() && pooled_model.ok());

  std::vector<api::SimulateRequest> batch;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    api::SimulateRequest request{.model = serial_model.value().id};
    request.options.resolution = sim::Resolution::kRandom;
    request.options.seed = seed;
    batch.push_back(request);
  }
  const std::string expected = render_batch(serial.call_batch(envelopes(batch)));
  auto handle = pooled.submit(envelopes(
      batch, {.priority = api::Priority::kHigh, .deadline = std::chrono::milliseconds{100}}));
  EXPECT_EQ(render_batch(handle.wait()), expected);
}

// --- session move semantics --------------------------------------------------

// Batch tasks capture store snapshots, never the session, so sessions are
// movable (copies stay deleted: sharing a store must be explicit).
TEST(SessionSemantics, SessionsAreMovableNotCopyable) {
  static_assert(!std::is_copy_constructible_v<Session>);
  static_assert(!std::is_copy_assignable_v<Session>);
  static_assert(std::is_move_constructible_v<Session>);
  static_assert(std::is_move_assignable_v<Session>);

  Session original;
  const auto loaded = original.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());
  Session moved{std::move(original)};
  const auto run = moved.simulate({.model = loaded.value().id});
  EXPECT_TRUE(run.ok());
}

TEST(SessionSemantics, ExecutorInjectionIsVisible) {
  Session serial;
  EXPECT_EQ(serial.executor().name(), "serial");
  Session pooled{api::make_executor(2)};
  EXPECT_EQ(pooled.executor().name(), "threads:2");
  Session fallback{std::shared_ptr<api::Executor>{}};  // null falls back to serial
  EXPECT_EQ(fallback.executor().name(), "serial");
}

// --- parallel-vs-serial determinism ------------------------------------------

class ParallelDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelDeterminism, BatchAndCompareMatchSerialBitForBit) {
  Session serial;  // SerialExecutor by default
  Session pooled{api::make_executor(4)};

  const auto serial_model = serial.load_builtin(GetParam());
  const auto pooled_model = pooled.load_builtin(GetParam());
  ASSERT_TRUE(serial_model.ok() && pooled_model.ok());
  ASSERT_EQ(serial_model.value().id.value(), pooled_model.value().id.value());

  // Simulate: a seed sweep across resolutions — serial, pooled, and
  // streaming (submit + wait) must be bit-identical.
  std::vector<api::SimulateRequest> simulations;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    api::SimulateRequest request{.model = serial_model.value().id};
    request.options.resolution = seed % 2 == 0 ? sim::Resolution::kRandom
                                               : sim::Resolution::kUpperBound;
    request.options.seed = seed;
    simulations.push_back(request);
  }
  const std::string serial_text = render_batch(serial.call_batch(envelopes(simulations)));
  EXPECT_EQ(serial_text, render_batch(pooled.call_batch(envelopes(simulations))));
  std::atomic<std::size_t> streamed{0};
  auto handle = pooled.submit(
      envelopes(simulations), [&streamed](std::size_t, const api::Result<api::AnyResponse>&) {
        ++streamed;
      });
  EXPECT_EQ(serial_text, render_batch(handle.wait()));
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(streamed.load(), simulations.size());  // on_slot fired per slot

  // Explore: greedy and annealing are seed-deterministic.
  std::vector<api::ExploreRequest> explorations;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    api::ExploreRequest request{.model = serial_model.value().id};
    request.options.engine = seed == 3 ? synth::ExploreEngine::kAnnealing
                                       : synth::ExploreEngine::kGreedy;
    request.options.seed = seed;
    explorations.push_back(request);
  }
  EXPECT_EQ(render_batch(serial.call_batch(envelopes(explorations))),
            render_batch(pooled.call_batch(envelopes(explorations))));

  // Compare: all five strategies, order sweep included — and the streaming
  // submit slot must match both blocking paths bit for bit.
  api::CompareRequest compare{.model = serial_model.value().id};
  compare.all_orders = true;
  const auto a = serial.compare(compare);
  const auto b = pooled.compare(compare);
  ASSERT_TRUE(a.ok()) << a.error_summary();
  ASSERT_TRUE(b.ok()) << b.error_summary();
  EXPECT_EQ(api::render(a.value()), api::render(b.value()));
  const auto streamed_compare = pooled.submit(envelopes<api::CompareRequest>({compare})).wait();
  ASSERT_EQ(streamed_compare.size(), 1u);
  ASSERT_TRUE(streamed_compare[0].ok()) << streamed_compare[0].error_summary();
  EXPECT_EQ(api::render(a.value()),
            api::render(response_of<api::CompareResponse>(streamed_compare[0])));
}

INSTANTIATE_TEST_SUITE_P(Builtins, ParallelDeterminism,
                         ::testing::Values("fig1", "fig2", "fig3", "video_system",
                                           "multistandard_tv", "emission_control", "synthetic"));

TEST(ParallelBatch, FailingSlotsStayIsolatedUnderThePool) {
  Session pooled{api::make_executor(4)};
  const auto loaded = pooled.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());

  std::vector<api::SimulateRequest> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back({.model = i % 3 == 1 ? api::ModelId{9999} : loaded.value().id});
  }
  const auto results = pooled.call_batch(envelopes(batch));
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 3 == 1) {
      EXPECT_FALSE(results[i].ok()) << i;
      EXPECT_TRUE(results[i].diagnostics().has_code(api::diag::kUnknownModel)) << i;
    } else {
      EXPECT_TRUE(results[i].ok()) << i;
    }
  }
}

// --- deadline-miss telemetry -------------------------------------------------

TEST(ExecutorStats, CompletionsAreCountedWithoutDeadlines) {
  api::SerialExecutor serial;
  std::atomic<int> ran{0};
  serial.run({[&] { ++ran; }, [&] { ++ran; }, [&] { ++ran; }});
  const api::ExecutorStats stats = serial.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.max_lateness.count(), 0);
  EXPECT_EQ(stats.total_lateness.count(), 0);
  EXPECT_EQ(stats.miss_rate(), 0.0);
}

TEST(ExecutorStats, ZeroDeadlineRecordsMissesAndLateness) {
  // A deadline of 0 ms is already past when the task finishes, so every
  // task records a miss with strictly positive lateness.
  api::SerialExecutor serial;
  serial.run({[] { std::this_thread::sleep_for(std::chrono::milliseconds{2}); },
              [] { std::this_thread::sleep_for(std::chrono::milliseconds{2}); }},
             {.deadline = std::chrono::milliseconds{0}});
  const api::ExecutorStats stats = serial.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.deadline_misses, 2u);
  EXPECT_GT(stats.max_lateness.count(), 0);
  EXPECT_GE(stats.total_lateness, stats.max_lateness);
  EXPECT_EQ(stats.miss_rate(), 1.0);
}

TEST(ExecutorStats, GenerousDeadlineDoesNotMiss) {
  api::ThreadPoolExecutor pool{2};
  pool.run({[] {}, [] {}, [] {}, [] {}},
           {.deadline = std::chrono::milliseconds{60'000}});
  const api::ExecutorStats stats = pool.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.deadline_misses, 0u);
}

TEST(ExecutorStats, PoolRecordsMissesAcrossRunAndSubmit) {
  api::ThreadPoolExecutor pool{2};
  std::atomic<int> landed{0};
  pool.submit({[&] {
                 std::this_thread::sleep_for(std::chrono::milliseconds{2});
                 ++landed;
               }},
              {.deadline = std::chrono::milliseconds{0}});
  pool.run({[&] { ++landed; }});  // deadline-free: counted, never a miss
  while (landed.load() < 2) std::this_thread::yield();
  // The submit path may record an instant after the task body lands; poll
  // the monotone counters instead of racing them.
  api::ExecutorStats stats = pool.stats();
  while (stats.completed < 2) stats = pool.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_GT(stats.total_lateness.count(), 0);
}

TEST(ExecutorStats, SessionExposesItsExecutorsTelemetry) {
  Session session{api::make_executor(2)};
  const auto loaded = session.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());
  std::vector<api::SimulateRequest> batch(6, {.model = loaded.value().id});

  EXPECT_EQ(session.executor_stats().completed, 0u);
  auto handle = session.submit(envelopes(batch, {.deadline = std::chrono::milliseconds{0}}));
  (void)handle.wait();
  api::ExecutorStats stats = session.executor_stats();
  while (stats.completed < batch.size()) stats = session.executor_stats();
  EXPECT_EQ(stats.completed, batch.size());
  EXPECT_EQ(stats.deadline_misses, batch.size());
  EXPECT_GT(stats.max_lateness.count(), 0);
  EXPECT_GE(stats.total_lateness.count(),
            static_cast<std::int64_t>(batch.size()) * 0);  // monotone, consistent
  EXPECT_GE(stats.total_lateness, stats.max_lateness);
}

TEST(ExecutorStats, SnapshotNeverCountsMoreMissesThanCompletions) {
  // Four workers complete zero-deadline tasks while this thread keeps
  // reading stats(): no snapshot may count a miss whose completion it has
  // not counted (miss_rate() stays in [0, 1]), and once every task has
  // completed, every one of them is a miss.
  constexpr std::size_t kTasks = 1000;
  api::ThreadPoolExecutor pool{4};
  // Each body blocks for at least 1 us, so it always finishes strictly past
  // its 0 ms deadline.
  std::vector<std::function<void()>> tasks(
      kTasks, [] { std::this_thread::sleep_for(std::chrono::microseconds{1}); });
  pool.submit(std::move(tasks), {.deadline = std::chrono::milliseconds{0}});

  std::size_t torn = 0;
  api::ExecutorStats stats = pool.stats();
  for (;;) {
    if (stats.deadline_misses > stats.completed) ++torn;
    if (stats.completed >= kTasks) break;
    stats = pool.stats();
  }
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(stats.completed, kTasks);
  EXPECT_EQ(stats.deadline_misses, kTasks);
  EXPECT_EQ(stats.miss_rate(), 1.0);
  EXPECT_GT(stats.max_lateness.count(), 0);
  EXPECT_GE(stats.total_lateness, stats.max_lateness);
}

TEST(ParallelBatch, ConcurrentBatchesFromSeveralThreadsInterleaveSafely) {
  Session pooled{api::make_executor(4)};
  const auto loaded = pooled.load_builtin("fig1");
  ASSERT_TRUE(loaded.ok());
  std::vector<api::SimulateRequest> batch(8, {.model = loaded.value().id});

  const std::string expected = render_batch(pooled.call_batch(envelopes(batch)));
  std::vector<std::string> observed(3);
  std::vector<std::thread> callers;
  callers.reserve(observed.size());
  for (auto& slot : observed) {
    callers.emplace_back(
        [&pooled, &batch, &slot] { slot = render_batch(pooled.call_batch(envelopes(batch))); });
  }
  for (auto& caller : callers) caller.join();
  for (const auto& text : observed) EXPECT_EQ(text, expected);
}

}  // namespace
}  // namespace spivar
