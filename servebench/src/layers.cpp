#include "layers.hpp"

#include <poll.h>

#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <set>
#include <thread>

#include "api/cache.hpp"
#include "api/wire.hpp"
#include "corpus/spec.hpp"
#include "server.hpp"
#include "service/tcp.hpp"
#include "sim/engine.hpp"
#include "synth/from_model.hpp"
#include "synth/strategies.hpp"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Requests replayed through the codec, session, cache and evaluation
/// layers, per workload (compare requests cost milliseconds each).
std::size_t replay_length(Workload workload) {
  switch (workload) {
    case Workload::kServeHits: return 4000;
    case Workload::kServeMisses: return 1500;
    case Workload::kHitsUnderMisses: return 1500;
    case Workload::kCompareCorpus: return 120;
  }
  return 0;
}
/// Request/reply round trips over the loopback pair; large replies stall.
constexpr std::size_t kServiceRoundTrips = 400;
constexpr std::size_t kLargeReplyRoundTrips = 60;
/// Length of the executor pass.
constexpr std::chrono::milliseconds kExecutorPass{1500};
/// Direct simulator runs timed (the rest of a warm set evaluates untimed).
constexpr std::size_t kSimulatorSamples = 400;
/// Models compared off the request path, where the workload sends no compare.
constexpr std::size_t kOffPathModels = 8;
/// A reply write slower than this is a stall.
constexpr double kStallUs = 20'000;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

template <typename F>
auto timed(std::vector<double>& into, F&& f) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    into.push_back(micros(Clock::now() - start));
  } else {
    auto value = f();
    into.push_back(micros(Clock::now() - start));
    return value;
  }
}

/// Calls `f` with a value of the response type behind `kind`.
template <typename F>
decltype(auto) with_response_type(api::RequestKind kind, F&& f) {
  switch (kind) {
    case api::RequestKind::kSimulate: return f(api::SimulateResponse{});
    case api::RequestKind::kAnalyze: return f(api::AnalyzeResponse{});
    case api::RequestKind::kExplore: return f(api::ExploreResponse{});
    case api::RequestKind::kPareto: return f(api::ParetoResponse{});
    case api::RequestKind::kCompare: return f(api::CompareResponse{});
  }
  throw std::logic_error{"unknown request kind"};
}

/// The in-process stand-in for the server: one store, a serial cacheless
/// session that evaluates, and the benchmark's own result cache in front of
/// it, so every layer call is made, and timed, from here.
class Replay {
 public:
  explicit Replay(const Inputs& inputs)
      : inputs_(inputs),
        store_(std::make_shared<api::ModelStore>()),
        session_(store_),
        cache_(api::CacheConfig{.capacity = inputs.cache_capacity}) {}

  std::map<std::string, std::vector<double>> spans;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t failed = 0;
  std::set<std::string> compared;  ///< targets whose compare was timed

  /// Serves request `index` as the server would and returns its reply
  /// frame. With `measured` false (warm-up) only set-up work is recorded:
  /// mints, inserts and evaluations.
  std::string serve(std::size_t index, std::uint64_t id, bool measured) {
    const RequestSpec& spec = inputs_.requests[index];
    const std::string frame = api::wire::encode(to_request(spec), id);
    std::vector<double> scratch;
    const auto span = [&](const char* name) -> std::vector<double>& {
      return measured ? spans[name] : scratch;
    };
    api::Result<api::AnyRequest> decoded =
        timed(span("wire.decode_request_us"), [&] { return api::wire::decode_request(frame); });
    if (!decoded.ok()) throw std::runtime_error{"request frame did not decode"};
    api::AnyRequest request = std::move(decoded).value();
    const api::ModelInfo info = resolve(spec.target, measured);
    api::set_model(request.payload, info.id);
    request.target.clear();

    const api::StoreEntry& entry = *store_->find(info.id);
    const api::ResultCache::Key key{.model = info.id.value(),
                                    .generation = entry.generation(),
                                    .kind = spec.kind,
                                    .fingerprint = api::fingerprint(request),
                                    .content = entry.content_fingerprint()};
    api::Result<api::AnyResponse> result = with_response_type(spec.kind, [&](auto tag) {
      using Response = decltype(tag);
      const auto found = timed(span("cache.find_us"), [&] { return cache_.find<Response>(key); });
      if (measured) ++lookups;
      if (found) {
        if (measured) ++hits;
        return found->ok() ? api::Result<api::AnyResponse>::success(found->value())
                           : api::Result<api::AnyResponse>::failure(found->diagnostics());
      }
      api::Result<api::AnyResponse> evaluated = evaluate(request, spec, entry);
      api::Result<Response> typed =
          evaluated.ok()
              ? api::Result<Response>::success(std::get<Response>(evaluated.value()))
              : api::Result<Response>::failure(evaluated.diagnostics());
      timed(spans["cache.insert_us"], [&] { cache_.insert(key, std::move(typed)); });
      return evaluated;
    });
    if (measured) {
      ++evaluated;
      if (!result.ok()) ++failed;
    }
    std::string reply = timed(span("wire.encode_reply_us"),
                              [&] { return api::wire::encode(result, id); });
    if (measured) spans["wire.reply_bytes"].push_back(static_cast<double>(reply.size()));
    return reply;
  }

  /// Resolves a target; the first resolve of a `sweep/` name mints it.
  api::ModelInfo resolve(const std::string& target, bool measured) {
    std::vector<double> scratch;
    const bool first = resolved_.insert(target).second;
    auto& into = first ? (corpus::is_corpus_name(target) ? spans["store.mint_us"] : scratch)
                       : (measured ? spans["session.resolve_us"] : scratch);
    api::Result<api::ModelInfo> info = timed(into, [&] { return session_.resolve(target); });
    if (!info.ok()) throw std::runtime_error{"cannot resolve '" + target + "'"};
    if (first) {
      // A known spec's resolve, so every workload measures one.
      timed(spans["session.resolve_us"], [&] { (void)session_.resolve(target); });
    }
    return info.value();
  }

  /// Times the simulator on one simulate request of `target`.
  void time_simulator(const api::StoreEntry& entry, const sim::SimOptions& options) {
    const spi::Graph& graph = entry.model().graph();
    const auto start = Clock::now();
    const sim::SimResult result = entry.model().interface_count() > 0
                                      ? sim::Simulator{entry.model(), options}.run()
                                      : sim::Simulator{graph, options}.run();
    const double us = micros(Clock::now() - start);
    spans["sim.run_us"].push_back(us);
    spans["sim.firings"].push_back(static_cast<double>(result.total_firings));
    if (result.total_firings > 0) {
      spans["sim.ns_per_firing"].push_back(us * 1000.0 / static_cast<double>(result.total_firings));
    }
  }

  /// Times a five-strategy compare through the session, then each strategy
  /// on its own through synth::run_strategy.
  api::Result<api::CompareResponse> time_compare(const api::CompareRequest& request,
                                                 const std::string& target) {
    api::Result<api::CompareResponse> result =
        timed(spans["synth.compare_us"], [&] { return session_.compare(request); });
    if (!result.ok()) return result;
    std::int64_t evaluations = 0;
    for (const api::CompareResponse::Row& row : result.value().rows) {
      evaluations += row.evaluations;
    }
    spans["synth.evaluations"].push_back(static_cast<double>(evaluations));
    const ModelCase& model_case = cases_.get(target);
    const synth::SynthesisProblem problem =
        synth::problem_from_model(model_case.model, model_case.problem);
    for (const synth::StrategyKind kind : synth::kAllStrategies) {
      auto& into = spans[std::string{"synth.strategy_us."} + synth::to_string(kind)];
      const auto start = Clock::now();
      if (kind == synth::StrategyKind::kIndependent) {
        for (const synth::Application& app : problem.apps) {
          (void)synth::run_strategy(kind, model_case.library, {app}, {}, request.options);
        }
      } else {
        (void)synth::run_strategy(kind, model_case.library, problem.apps, {}, request.options);
      }
      into.push_back(micros(Clock::now() - start));
    }
    compared.insert(target);
    return result;
  }

  [[nodiscard]] const api::StoreEntry& entry(api::ModelId id) const { return *store_->find(id); }

  /// serve() without spans, safe from several threads: what one executor
  /// task does for a request (cache probe, evaluation on a miss, encode).
  void serve_untimed(std::size_t index, std::uint64_t id) {
    const RequestSpec& spec = inputs_.requests[index];
    api::AnyRequest request = to_request(spec);
    const api::Result<api::ModelInfo> info = session_.resolve(spec.target);
    if (!info.ok()) return;
    api::set_model(request.payload, info.value().id);
    request.target.clear();
    const api::StoreEntry& entry = *store_->find(info.value().id);
    const api::ResultCache::Key key{.model = info.value().id.value(),
                                    .generation = entry.generation(),
                                    .kind = spec.kind,
                                    .fingerprint = api::fingerprint(request),
                                    .content = entry.content_fingerprint()};
    with_response_type(spec.kind, [&](auto tag) {
      using Response = decltype(tag);
      if (const auto found = cache_.find<Response>(key)) {
        (void)api::wire::encode(found->ok() ? api::Result<api::AnyResponse>::success(found->value())
                                            : api::Result<api::AnyResponse>::failure(
                                                  found->diagnostics()),
                                id);
        return;
      }
      const api::Result<api::AnyResponse> result = session_.call(request);
      if (result.ok()) {
        cache_.insert(key, api::Result<Response>::success(std::get<Response>(result.value())));
      }
      (void)api::wire::encode(result, id);
    });
  }

 private:
  api::Result<api::AnyResponse> evaluate(const api::AnyRequest& request, const RequestSpec& spec,
                                         const api::StoreEntry& entry) {
    if (spec.kind == api::RequestKind::kCompare) {
      api::Result<api::CompareResponse> compare =
          time_compare(std::get<api::CompareRequest>(request.payload), spec.target);
      return compare.ok() ? api::Result<api::AnyResponse>::success(std::move(compare).value())
                          : api::Result<api::AnyResponse>::failure(compare.diagnostics());
    }
    if (spec.kind == api::RequestKind::kSimulate &&
        spans["sim.run_us"].size() < kSimulatorSamples) {
      time_simulator(entry, std::get<api::SimulateRequest>(request.payload).options);
    }
    return session_.call(request);
  }

  const Inputs& inputs_;
  std::shared_ptr<api::ModelStore> store_;
  api::Session session_;
  api::ResultCache cache_;
  std::set<std::string> resolved_;
  ModelCases cases_;
};

/// The replay sequence: the connections' requests interleaved one by one,
/// as they reach the server. `consumed[c]` counts what connection c used.
std::vector<std::pair<std::size_t, std::uint64_t>> replay_sequence(
    const Inputs& inputs, std::size_t length, std::vector<std::size_t>& consumed) {
  std::vector<std::pair<std::size_t, std::uint64_t>> sequence;
  consumed.assign(inputs.connections.size(), 0);
  for (std::size_t step = 0; sequence.size() < length; ++step) {
    bool any = false;
    for (std::size_t c = 0; c < inputs.connections.size() && sequence.size() < length; ++c) {
      const ConnectionPlan& plan = inputs.connections[c];
      if (!plan.cycles() && step >= plan.order.size()) continue;
      const std::size_t slot = step % plan.order.size();
      sequence.emplace_back(plan.order[slot], frame_id(c, slot));
      consumed[c] = step + 1;
      any = true;
    }
    if (!any) break;
  }
  return sequence;
}

/// Submit-to-start wait on a two-worker pool, with one submitting thread per
/// connection. Each submits at the rate its connection reached end to end,
/// with no more than the connection's depth outstanding, so the pool sees the
/// load the server saw (the network stalls of large replies included).
std::vector<double> executor_pass(const Inputs& inputs, Replay& replay,
                                  const std::vector<std::size_t>& consumed,
                                  const std::vector<double>& connection_rps) {
  const std::shared_ptr<api::Executor> pool = api::make_executor(2);
  std::mutex mutex;
  std::vector<double> waits;
  const auto deadline = Clock::now() + kExecutorPass;
  const auto submitter = [&](std::size_t c) {
    const ConnectionPlan& plan = inputs.connections[c];
    std::mutex state_mutex;
    std::condition_variable landed;
    std::size_t outstanding = 0;
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / std::max(connection_rps[c], 1.0)));
    auto due = Clock::now();
    for (std::size_t step = consumed[c];; ++step, due += interval) {
      std::this_thread::sleep_until(due);
      if (Clock::now() >= deadline || (!plan.cycles() && step >= plan.order.size())) break;
      const std::size_t index = plan.order[step % plan.order.size()];
      {
        std::unique_lock lock{state_mutex};
        landed.wait(lock, [&] { return outstanding < plan.depth; });
        ++outstanding;
      }
      const auto submitted = Clock::now();
      pool->submit({[&, index, submitted, c] {
        const double wait = micros(Clock::now() - submitted);
        {
          std::lock_guard lock{mutex};
          waits.push_back(wait);
        }
        replay.serve_untimed(index, frame_id(c, 0));
        std::lock_guard lock{state_mutex};
        --outstanding;
        landed.notify_all();
      }});
    }
    std::unique_lock lock{state_mutex};
    landed.wait(lock, [&] { return outstanding == 0; });
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < inputs.connections.size(); ++c) threads.emplace_back(submitter, c);
  submitter(0);
  for (std::thread& thread : threads) thread.join();
  return waits;
}

/// Request reads and reply writes through service::FdStreamBuf over a
/// loopback TCP pair: a client thread sends each request frame and reads the
/// whole reply before sending the next, as a depth-1 connection does.
void service_pass(const std::vector<std::pair<std::string, std::string>>& exchanges,
                  std::map<std::string, std::vector<double>>& spans) {
  service::Socket listener = service::listen_loopback(0);
  if (!listener.valid()) throw std::runtime_error{"cannot listen on loopback"};
  const std::uint16_t port = service::bound_port(listener);
  std::vector<Clock::time_point> read_whole(exchanges.size());
  std::string client_error;
  std::thread client{[&] {
    try {
      const int fd = connect_loopback(port);
      FrameReader reader{fd};
      for (std::size_t i = 0; i < exchanges.size(); ++i) {
        write_all(fd, exchanges[i].first);
        (void)reader.next();
        read_whole[i] = Clock::now();
      }
      ::close(fd);
    } catch (const std::exception& error) {
      client_error = error.what();
    }
  }};
  service::Socket peer = service::accept_client(listener);
  service::FdStreamBuf buffer{peer.fd()};
  std::istream in{&buffer};
  std::ostream out{&buffer};
  std::vector<Clock::time_point> write_start(exchanges.size());
  for (std::size_t i = 0; i < exchanges.size() && peer.valid(); ++i) {
    pollfd pfd{.fd = peer.fd(), .events = POLLIN};
    ::poll(&pfd, 1, -1);
    const std::optional<std::string> frame =
        timed(spans["service.request_read_us"], [&] { return api::wire::read_frame(in); });
    if (!frame) break;
    write_start[i] = Clock::now();
    out << exchanges[i].second << std::flush;
  }
  client.join();
  if (!client_error.empty()) throw std::runtime_error{"loopback client: " + client_error};
  std::size_t stalled = 0;
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    const double us = micros(read_whole[i] - write_start[i]);
    spans["service.reply_write_us"].push_back(us);
    if (us > kStallUs) ++stalled;
  }
  spans["service.stalled_replies"].push_back(static_cast<double>(stalled));
}

double median(std::map<std::string, std::vector<double>>& spans, const std::string& name) {
  return quantile(spans[name], 0.5);
}

}  // namespace

LayerResult run_layers(const Inputs& inputs, double latency_p50_us,
                       const std::vector<double>& connection_rps) {
  Replay replay{inputs};
  for (const std::size_t index : inputs.warm) replay.serve(index, 0, false);

  std::vector<std::size_t> consumed;
  const auto sequence = replay_sequence(inputs, replay_length(inputs.workload), consumed);
  std::vector<std::pair<std::string, std::string>> exchanges;
  const std::size_t round_trips = inputs.workload == Workload::kCompareCorpus
                                      ? kLargeReplyRoundTrips
                                      : kServiceRoundTrips;
  for (const auto& [index, id] : sequence) {
    std::string reply = replay.serve(index, id, true);
    if (exchanges.size() < round_trips) {
      exchanges.emplace_back(api::wire::encode(to_request(inputs.requests[index]), id),
                             std::move(reply));
    }
  }

  // Layers the workload's own requests do not reach are timed on its models,
  // off the request path, so every workload reports every layer.
  std::vector<std::string> targets;
  for (const auto& [index, id] : sequence) {
    const std::string& target = inputs.requests[index].target;
    if (std::find(targets.begin(), targets.end(), target) == targets.end()) {
      targets.push_back(target);
    }
  }
  if (targets.size() > kOffPathModels) targets.resize(kOffPathModels);
  if (replay.spans["sim.run_us"].empty()) {
    for (const std::string& target : targets) {
      const api::ModelInfo info = replay.resolve(target, false);
      replay.time_simulator(replay.entry(info.id),
                            {.resolution = sim::Resolution::kRandom, .seed = inputs.seed});
    }
  }
  if (replay.compared.empty()) {
    for (const std::string& target : targets) {
      (void)replay.time_compare({.model = replay.resolve(target, false).id}, target);
    }
  }

  replay.spans["executor.queue_wait_us"] = executor_pass(inputs, replay, consumed, connection_rps);
  service_pass(exchanges, replay.spans);

  LayerResult result;
  result.attempted = replay.evaluated;
  result.failed = replay.failed;
  auto& spans = replay.spans;
  std::map<std::string, double>& m = result.metrics;
  for (const char* name :
       {"service.request_read_us", "service.reply_write_us", "wire.decode_request_us",
        "wire.encode_reply_us", "wire.reply_bytes", "session.resolve_us", "store.mint_us",
        "executor.queue_wait_us", "cache.find_us", "cache.insert_us", "sim.run_us",
        "sim.firings", "sim.ns_per_firing", "synth.compare_us", "synth.evaluations"}) {
    m[name] = median(spans, name);
  }
  for (const synth::StrategyKind kind : synth::kAllStrategies) {
    const std::string name = std::string{"synth.strategy_us."} + synth::to_string(kind);
    m[name] = median(spans, name);
  }
  m["service.stalled_replies"] = spans["service.stalled_replies"].front();
  m["cache.lookups"] = static_cast<double>(replay.lookups);
  m["cache.hit_ratio"] =
      replay.lookups == 0 ? 0.0 : static_cast<double>(replay.hits) / static_cast<double>(replay.lookups);

  // The layers a request of this workload crosses, in order.
  double path = m["service.request_read_us"] + m["wire.decode_request_us"] +
                m["executor.queue_wait_us"] + m["cache.find_us"] + m["wire.encode_reply_us"] +
                m["service.reply_write_us"];
  switch (inputs.workload) {
    case Workload::kServeHits: path += m["session.resolve_us"]; break;
    case Workload::kServeMisses:
    case Workload::kHitsUnderMisses:
      path += m["session.resolve_us"] + m["sim.run_us"] + m["cache.insert_us"];
      break;
    case Workload::kCompareCorpus:
      path += m["store.mint_us"] + m["synth.compare_us"] + m["cache.insert_us"];
      break;
  }
  m["residual_us"] = latency_p50_us - path;
  if (result.failed > 0) result.report.fail("the in-process replay saw failed evaluations");
  std::cerr << to_string(inputs.workload) << " traced replay: " << sequence.size()
            << " requests, " << spans["executor.queue_wait_us"].size() << " executor tasks, "
            << exchanges.size() << " loopback round trips\n";
  return result;
}

}  // namespace servebench
