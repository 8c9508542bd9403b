#include "run.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <latch>
#include <thread>

#include "api/wire.hpp"
#include "server.hpp"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Replies the first three workloads must fit in: one FdStreamBuf write.
constexpr std::size_t kSmallReplyBytes = 4096;
/// Idle hit probe of the workloads whose measured phase has no hits.
constexpr std::size_t kHitProbeRequests = 10000;
/// Threads that re-evaluate and check replies after the phase.
constexpr std::size_t kCheckThreads = 4;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One request's latency and when, after the phase began, its reply landed.
struct Sample {
  double at_s = 0;
  double us = 0;
};

/// The phase is cut into equal time windows of at least kWindowSamples
/// replies each (at most one per second), and each metric is the median of
/// its per-window values, so a burst of machine slowness inside one window
/// moves it little. A window's p99 still has ten samples beyond it.
constexpr std::size_t kWindowSamples = 1000;

std::size_t window_count(std::size_t samples, double max_windows) {
  return std::clamp<std::size_t>(samples / kWindowSamples, 1,
                                 std::max<std::size_t>(static_cast<std::size_t>(max_windows), 1));
}

/// Median over `windows` equal slices of [0, span_s] of
/// `statistic(latencies_us, slice_seconds)`; samples landing after span_s
/// (the drain of pipelined requests) widen the last slice.
template <typename F>
double window_median(const std::vector<Sample>& samples, double span_s, std::size_t windows,
                     F statistic) {
  const double length = span_s / static_cast<double>(windows);
  std::vector<std::vector<double>> slices(windows);
  double last = span_s;
  for (const Sample& sample : samples) {
    const auto index = static_cast<std::size_t>(std::max(sample.at_s, 0.0) / length);
    slices[std::min(index, windows - 1)].push_back(sample.us);
    last = std::max(last, sample.at_s);
  }
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    const double slice_s = w + 1 == windows ? last - length * static_cast<double>(w) : length;
    values.push_back(statistic(slices[w], slice_s));
  }
  return quantile(values, 0.5);
}

/// A reply kept for the post-phase checks: its bytes in the connection's
/// arena and the request it answers.
struct Kept {
  std::size_t request = 0;  ///< index into Inputs::requests
  std::uint64_t id = 0;     ///< frame id the reply must echo
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// One connection's measured phase.
struct ConnectionRun {
  int fd = -1;
  std::vector<std::string> frames;  ///< pre-encoded; a hit connection's frames are one round
  std::vector<Sample> samples;
  std::string arena;                ///< raw bytes of the kept replies
  std::vector<Kept> kept;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t repeats_differing = 0;  ///< hit rounds whose reply differs from round one
  std::uint64_t unexpected_ids = 0;
  std::size_t max_reply_bytes = 0;
  std::uint64_t large_replies = 0;  ///< replies over kSmallReplyBytes
  bool exhausted = false;
  Clock::time_point finished;
  std::string error;

  ConnectionRun() = default;
  ConnectionRun(const ConnectionRun&) = delete;
  ConnectionRun& operator=(const ConnectionRun&) = delete;
  ~ConnectionRun() {
    if (fd >= 0) ::close(fd);
  }

  void note_size(std::string_view reply) {
    max_reply_bytes = std::max(max_reply_bytes, reply.size());
    if (reply.size() > kSmallReplyBytes) ++large_replies;
  }

  void keep(std::size_t request, std::uint64_t id, std::string_view reply) {
    kept.push_back({request, id, arena.size(), reply.size()});
    arena.append(reply);
  }
  [[nodiscard]] std::string_view kept_bytes(const Kept& k) const {
    return std::string_view{arena}.substr(k.offset, k.size);
  }
};

/// Closed loop of one waiting caller: send, wait for the reply, repeat.
void drive_depth_one(const ConnectionPlan& plan, std::size_t index, ConnectionRun& run,
                     Clock::time_point begin, Clock::time_point deadline) {
  FrameReader reader{run.fd};
  const std::size_t round = run.frames.size();
  for (std::size_t i = 0;; ++i) {
    if (Clock::now() >= deadline) break;
    if (!plan.cycles() && i >= round) {
      run.exhausted = true;
      break;
    }
    const std::size_t slot = i % round;
    const auto sent = Clock::now();
    write_all(run.fd, run.frames[slot]);
    ++run.sent;
    const std::string_view reply = reader.next();
    const auto now = Clock::now();
    run.samples.push_back({seconds_between(begin, now), micros(now - sent)});
    ++run.received;
    run.note_size(reply);
    if (i < round) {
      run.keep(plan.order[slot], frame_id(index, slot), reply);
    } else if (run.kept_bytes(run.kept[slot]) != reply) {
      ++run.repeats_differing;
    }
  }
}

/// Pipelined connection: `plan.depth` requests in flight, the next sent as
/// each reply lands, replies matched to requests by frame id.
void drive_pipelined(const ConnectionPlan& plan, std::size_t index, ConnectionRun& run,
                     Clock::time_point begin, Clock::time_point deadline) {
  FrameReader reader{run.fd};
  std::vector<Clock::time_point> sent_at(run.frames.size());
  std::vector<char> answered(run.frames.size(), 0);
  std::size_t next = 0;
  const auto send_next = [&] {
    sent_at[next] = Clock::now();
    write_all(run.fd, run.frames[next]);
    ++next;
    ++run.sent;
  };
  while (next < plan.depth && next < run.frames.size()) send_next();
  while (run.received < run.sent) {
    const std::string_view reply = reader.next();
    const auto now = Clock::now();
    ++run.received;
    run.note_size(reply);
    const std::uint64_t id = reply_id(reply);
    const std::uint64_t slot = id - frame_id(index, 0);
    if (id < frame_id(index, 0) || slot >= next || answered[slot]) {
      ++run.unexpected_ids;
    } else {
      answered[slot] = 1;
      run.samples.push_back({seconds_between(begin, now), micros(now - sent_at[slot])});
      run.keep(plan.order[slot], id, reply);
    }
    if (now < deadline) {
      if (next < run.frames.size()) {
        send_next();
      } else {
        run.exhausted = true;
      }
    }
  }
}

void drive(const ConnectionPlan& plan, std::size_t index, ConnectionRun& run, std::latch& start,
           const Clock::time_point& begin, double seconds) {
  start.arrive_and_wait();
  const auto deadline = begin + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  try {
    if (plan.depth > 1) {
      drive_pipelined(plan, index, run, begin, deadline);
    } else {
      drive_depth_one(plan, index, run, begin, deadline);
    }
  } catch (const std::exception& error) {
    run.error = error.what();
  }
  run.finished = Clock::now();
}

/// One inline control round trip (`control v1 <command>`), returning the reply.
std::string control(int fd, FrameReader& reader, std::string_view command) {
  write_all(fd, api::wire::control_frame(command));
  return std::string{reader.next()};
}

std::string write_warm_log(const Inputs& inputs, const RunOptions& options) {
  if (inputs.warm.empty()) return {};
  const std::string path = options.work_dir + "/warm-" + to_string(inputs.workload) + "-" +
                           std::to_string(::getpid()) + ".wire";
  std::ofstream log{path, std::ios::trunc};
  for (const std::size_t index : inputs.warm) {
    log << api::wire::encode(to_request(inputs.requests[index]));
  }
  if (!log.flush()) throw std::runtime_error{"cannot write the warm log " + path};
  return path;
}

/// A request sent after the measured phase, with its reply.
struct Probe {
  RequestSpec spec;
  std::uint64_t id = 0;
  std::string reply;
};

/// Re-evaluates every kept reply's request in a serial, cacheless in-process
/// session and runs the reply, simulate and compare checks on it.
void check_replies(const Inputs& inputs, const std::vector<std::unique_ptr<ConnectionRun>>& runs,
                   const std::vector<Probe>& probes, CheckReport& report,
                   std::uint64_t& failed_replies) {
  struct Item {
    const RequestSpec* spec;
    std::uint64_t id;
    std::string_view raw;
  };
  std::vector<Item> items;
  for (const auto& run : runs) {
    for (const Kept& k : run->kept) {
      items.push_back({&inputs.requests[k.request], k.id, run->kept_bytes(k)});
    }
  }
  for (const Probe& probe : probes) items.push_back({&probe.spec, probe.id, probe.reply});

  // The reference resolves every target in the order the server first saw
  // them, so both stores hand out the same model handles: analyze replies
  // echo the handle.
  api::Session reference;
  for (const std::size_t index : inputs.warm) {
    (void)reference.resolve(inputs.requests[index].target);
  }
  for (const Item& item : items) (void)reference.resolve(item.spec->target);
  std::vector<CheckReport> reports(kCheckThreads);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> failed{0};
  const auto worker = [&](std::size_t thread) {
    ModelCases cases;
    CheckReport& local = reports[thread];
    for (std::size_t i = cursor++; i < items.size(); i = cursor++) {
      const Item& item = items[i];
      const std::string label = describe(*item.spec);
      const auto served = check_reply(item.raw, item.id, reference.call(to_request(*item.spec)),
                                      label, local);
      if (!served) {
        ++failed;
        continue;
      }
      try {
        if (const auto* simulate = std::get_if<api::SimulateResponse>(&*served)) {
          check_simulate(*simulate, cases.get(item.spec->target).model, label, local);
        } else if (const auto* compare = std::get_if<api::CompareResponse>(&*served)) {
          const ModelCase& model = cases.get(item.spec->target);
          if (item.spec->target == "fig2") {
            check_table1(*compare, local);
          } else {
            check_compare(*compare, model.model, model.library, label, local);
          }
        }
      } catch (const std::exception& error) {
        local.fail(label + ": " + error.what());
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < kCheckThreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& thread : threads) thread.join();
  for (CheckReport& local : reports) {
    for (std::string& problem : local.problems) report.fail(std::move(problem));
  }
  failed_replies += failed.load();
}

void check_cache_deltas(const Inputs& inputs, std::uint64_t hits, std::uint64_t misses,
                        const std::vector<std::unique_ptr<ConnectionRun>>& runs,
                        CheckReport& report) {
  std::uint64_t hit_requests = 0;
  std::uint64_t other_requests = 0;
  for (std::size_t c = 0; c < runs.size(); ++c) {
    (inputs.connections[c].role == ConnectionPlan::Role::kHit ? hit_requests : other_requests) +=
        runs[c]->received;
  }
  if (hits != hit_requests || misses != other_requests) {
    report.fail("cache-stats moved by " + std::to_string(hits) + " hits and " +
                std::to_string(misses) + " misses; the workload sent " +
                std::to_string(hit_requests) + " repeated and " +
                std::to_string(other_requests) + " fresh requests");
  }
}

}  // namespace

RunResult run_end_to_end(const Inputs& inputs, const RunOptions& options) {
  RunResult result;
  const std::string warm_log = write_warm_log(inputs, options);
  std::vector<std::string> args{"--port", "0", "--jobs", "2", "--cache",
                                std::to_string(inputs.cache_capacity)};
  if (!warm_log.empty()) {
    args.push_back("--warm");
    args.push_back(warm_log);
  }
  ServerProcess server{options.serve_binary, args};
  const std::optional<std::uint16_t> port = server.wait_for_port(std::chrono::seconds{120});
  if (!port) throw std::runtime_error{"spivar_serve did not start listening"};

  std::vector<std::unique_ptr<ConnectionRun>> runs;
  for (std::size_t c = 0; c < inputs.connections.size(); ++c) {
    runs.push_back(std::make_unique<ConnectionRun>());
    runs.back()->fd = connect_loopback(*port);
  }
  FrameReader control_reader{runs[0]->fd};
  if (control(runs[0]->fd, control_reader, "ping").find("pong") == std::string::npos) {
    throw std::runtime_error{"spivar_serve did not answer ping"};
  }
  result.metrics["setup_s"] =
      std::chrono::duration<double>(Clock::now() - options.process_start).count();
  if (!warm_log.empty()) std::remove(warm_log.c_str());

  // Every frame is encoded before the clock starts.
  for (std::size_t c = 0; c < inputs.connections.size(); ++c) {
    const ConnectionPlan& plan = inputs.connections[c];
    for (std::size_t slot = 0; slot < plan.order.size(); ++slot) {
      runs[c]->frames.push_back(
          api::wire::encode(to_request(inputs.requests[plan.order[slot]]), frame_id(c, slot)));
    }
    runs[c]->samples.reserve(plan.cycles() ? 1 << 20 : plan.order.size());
  }
  const auto stats_before = parse_cache_stats(control(runs[0]->fd, control_reader, "cache-stats"));

  // --- measured phase -------------------------------------------------------
  std::latch start{static_cast<std::ptrdiff_t>(runs.size() + 1)};
  Clock::time_point begin;
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < runs.size(); ++c) {
    threads.emplace_back(drive, std::cref(inputs.connections[c]), c, std::ref(*runs[c]),
                         std::ref(start), std::cref(begin), options.seconds);
  }
  const auto steal_ticks = [] {
    std::ifstream stat{"/proc/stat"};
    std::string cpu;
    std::uint64_t value = 0;
    std::uint64_t steal = 0;
    stat >> cpu;
    for (int field = 1; field <= 8 && stat >> value; ++field) {
      if (field == 8) steal = value;
    }
    return steal;
  };
  const std::uint64_t steal_before = steal_ticks();
  const double cpu_before = server.cpu_us();
  begin = Clock::now();
  start.count_down();
  drive(inputs.connections[0], 0, *runs[0], start, begin, options.seconds);
  for (std::thread& thread : threads) thread.join();
  const double cpu_after = server.cpu_us();
  const std::uint64_t steal_after = steal_ticks();
  Clock::time_point end = begin;
  for (const auto& run : runs) end = std::max(end, run->finished);

  // --- after the phase ------------------------------------------------------
  for (std::size_t c = 0; c < runs.size(); ++c) {
    const ConnectionRun& run = *runs[c];
    const std::string name = "connection " + std::to_string(c);
    if (!run.error.empty()) result.report.fail(name + ": " + run.error);
    if (run.exhausted) {
      result.report.fail(name + " ran out of pre-encoded requests; raise its supply");
    }
    if (run.repeats_differing > 0) {
      result.report.fail(name + ": " + std::to_string(run.repeats_differing) +
                         " repeated replies differ from the first reply to the same frame");
    }
    if (run.unexpected_ids > 0) {
      result.report.fail(name + ": " + std::to_string(run.unexpected_ids) +
                         " replies carry an unknown or repeated frame id");
    }
    if (inputs.workload != Workload::kCompareCorpus && run.max_reply_bytes > kSmallReplyBytes) {
      result.report.fail(name + ": a reply of " + std::to_string(run.max_reply_bytes) +
                         " bytes exceeds " + std::to_string(kSmallReplyBytes));
    }
    result.attempted += run.sent;
    result.failed += run.sent - run.received;
  }
  const auto stats_after = parse_cache_stats(control(runs[0]->fd, control_reader, "cache-stats"));
  if (!stats_before || !stats_after) {
    result.report.fail("cache-stats control reply did not parse");
  } else {
    check_cache_deltas(inputs, stats_after->first - stats_before->first,
                       stats_after->second - stats_before->second, runs, result.report);
  }

  std::vector<Probe> probes;
  std::vector<Sample> probe_samples;
  const std::uint64_t probe_base = frame_id(runs.size(), 0);
  const auto send_probe = [&](RequestSpec spec) -> const std::string& {
    Probe& probe = probes.emplace_back(Probe{std::move(spec), probe_base + probes.size(), {}});
    write_all(runs[0]->fd, api::wire::encode(to_request(probe.spec), probe.id));
    probe.reply = control_reader.next();
    ++result.attempted;
    return probe.reply;
  };
  const bool phase_has_hits = inputs.workload == Workload::kServeHits ||
                              inputs.workload == Workload::kHitsUnderMisses;
  if (!phase_has_hits) {
    // Idle hit probe: one fixed simulate key, evaluated once, then repeated.
    const RequestSpec key{.kind = api::RequestKind::kSimulate, .target = "fig1",
                          .seed = inputs.seed};
    const std::string first = send_probe(key);
    const std::string repeat =
        api::wire::encode(to_request(key), probe_base + kHitProbeRequests + 1);
    std::uint64_t differing = 0;
    std::string_view last;
    const auto probe_begin = Clock::now();
    for (std::size_t i = 0; i < kHitProbeRequests; ++i) {
      const auto sent = Clock::now();
      write_all(runs[0]->fd, repeat);
      last = control_reader.next();
      const auto now = Clock::now();
      probe_samples.push_back({seconds_between(probe_begin, now), micros(now - sent)});
      if (last.substr(last.find('\n')) != std::string_view{first}.substr(first.find('\n'))) {
        ++differing;
      }
    }
    result.attempted += kHitProbeRequests;
    if (differing > 0) {
      result.report.fail("hit probe: " + std::to_string(differing) +
                         " repeated replies differ from the first");
    }
  }
  send_probe({.kind = api::RequestKind::kCompare, .target = "fig2", .seed = 1});
  const double peak_rss_mib = server.peak_rss_mib();
  // Closed connections let the server's SIGTERM drain finish at once.
  for (const auto& run : runs) {
    ::close(run->fd);
    run->fd = -1;
  }
  server.stop();

  // --- checks ---------------------------------------------------------------
  check_replies(inputs, runs, probes, result.report, result.failed);

  // --- metrics --------------------------------------------------------------
  std::vector<Sample> latency;
  std::vector<Sample> hit_latency;
  std::uint64_t received = 0;
  for (std::size_t c = 0; c < runs.size(); ++c) {
    const auto& samples = runs[c]->samples;
    latency.insert(latency.end(), samples.begin(), samples.end());
    if (inputs.connections[c].role == ConnectionPlan::Role::kHit) {
      hit_latency.insert(hit_latency.end(), samples.begin(), samples.end());
    }
    received += runs[c]->received;
  }
  const double wall_s = seconds_between(begin, end);
  double hit_span_s = options.seconds;
  double hit_max_windows = options.seconds;
  if (!phase_has_hits) {
    hit_latency = probe_samples;
    hit_span_s = probe_samples.back().at_s;
    hit_max_windows = static_cast<double>(kHitProbeRequests / kWindowSamples);
  }
  if (latency.size() < 1000 || hit_latency.size() < 1000) {
    std::cerr << "warning: fewer than 1000 latency samples; p99 has under ten beyond it\n";
  }
  const auto q = [](double level) {
    return [level](std::vector<double>& slice, double) { return quantile(slice, level); };
  };
  const std::size_t windows = window_count(latency.size(), options.seconds);
  const std::size_t hit_windows = window_count(hit_latency.size(), hit_max_windows);
  result.metrics["throughput_rps"] =
      window_median(latency, options.seconds, windows,
                    [](std::vector<double>& slice, double slice_s) {
                      return static_cast<double>(slice.size()) / slice_s;
                    });
  result.metrics["latency_p50_us"] = window_median(latency, options.seconds, windows, q(0.50));
  result.metrics["latency_p99_us"] = window_median(latency, options.seconds, windows, q(0.99));
  result.metrics["hit_latency_p50_us"] = window_median(hit_latency, hit_span_s, hit_windows, q(0.50));
  result.metrics["hit_latency_p99_us"] = window_median(hit_latency, hit_span_s, hit_windows, q(0.99));
  result.metrics["server_cpu_us_per_req"] = (cpu_after - cpu_before) / static_cast<double>(received);
  result.metrics["server_peak_rss_mib"] = peak_rss_mib;
  for (const auto& run : runs) {
    result.connection_rps.push_back(static_cast<double>(run->received) / wall_s);
  }
  const auto stalled = std::count_if(latency.begin(), latency.end(),
                                     [](const Sample& sample) { return sample.us > 20'000; });
  std::uint64_t large = 0;
  for (const auto& run : runs) large += run->large_replies;
  std::cerr << to_string(inputs.workload) << ": " << received << " replies in " << wall_s
            << " s over " << runs.size() << " connections, " << latency.size()
            << " latency samples in " << windows << " windows (" << stalled << " over 20 ms, "
            << large << " replies over " << kSmallReplyBytes << " bytes), "
            << hit_latency.size() << " hit samples in " << hit_windows << " windows; "
            << steal_after - steal_before << " ticks of CPU steal\n";
  result.correct = result.report.ok();
  return result;
}

}  // namespace servebench
