#include "api/session.hpp"

#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>

#include "analysis/buffer_bounds.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/structure.hpp"
#include "analysis/timing.hpp"
#include "api/detail.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"
#include "spi/dot.hpp"
#include "spi/textio.hpp"
#include "spi/validate.hpp"
#include "variant/dot.hpp"
#include "variant/textio.hpp"
#include "variant/validate.hpp"

namespace spivar::api {

using detail::empty_problem_message;
using detail::guarded;
using detail::problem_has_elements;
using detail::unknown_model;

namespace {

std::vector<std::string> process_names(const spi::Graph& graph,
                                       const std::vector<support::ProcessId>& ids) {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (auto pid : ids) names.push_back(graph.process(pid).name);
  return names;
}

// --- snapshot evaluation -----------------------------------------------------
//
// Each eval_* evaluates one immutable StoreEntry — what batch tasks capture
// (together with their snapshot), so no evaluation path ever touches
// Session state.

Result<SimulateResponse> eval_simulate(const StoreEntry& entry, const SimulateRequest& request) {
  return guarded<SimulateResponse>([&]() -> Result<SimulateResponse> {
    const spi::Graph& graph = entry.model().graph();
    sim::SimOptions options = request.options;
    if (request.render_timeline) options.record_trace = true;

    // Interface-aware simulation when the model carries variant structure.
    sim::SimResult result = entry.model().interface_count() > 0
                                ? sim::Simulator{entry.model(), options}.run()
                                : sim::Simulator{graph, options}.run();

    SimulateResponse response;
    response.model = graph.name();
    response.result = std::move(result);
    for (auto pid : graph.process_ids()) {
      const auto& stats = response.result.process(pid);
      response.processes.push_back({.name = graph.process(pid).name,
                                    .firings = stats.firings,
                                    .busy = stats.busy,
                                    .reconfigurations = stats.reconfigurations});
    }
    for (auto cid : graph.channel_ids()) {
      const auto& stats = response.result.channel(cid);
      response.channels.push_back({.name = graph.channel(cid).name,
                                   .produced = stats.produced,
                                   .consumed = stats.consumed,
                                   .occupancy = stats.occupancy,
                                   .max_occupancy = stats.max_occupancy});
    }
    if (request.render_timeline) {
      response.timeline = sim::render_timeline(graph, response.result);
    }
    return Result<SimulateResponse>::success(std::move(response));
  });
}

Result<ExploreResponse> eval_explore(const StoreEntry& entry, const ExploreRequest& request) {
  return guarded<ExploreResponse>([&]() -> Result<ExploreResponse> {
    const auto setup = resolve_setup(entry, request.problem, request.library);
    if (!problem_has_elements(setup->problem)) {
      return Result<ExploreResponse>::failure(
          diag::kEmptyProblem, empty_problem_message(entry.model().graph().name()));
    }
    ExploreResponse response{
        .model = entry.model().graph().name(),
        .result = synth::explore(setup->library, setup->problem.apps, request.options),
        .problem = setup->problem.name,
        .applications = setup->problem.apps.size(),
        .elements = setup->problem.element_union().size(),
        .library_origin = setup->library_origin,
    };
    return Result<ExploreResponse>::success(std::move(response));
  });
}

Result<ParetoResponse> eval_pareto(const StoreEntry& entry, const ParetoRequest& request) {
  return guarded<ParetoResponse>([&]() -> Result<ParetoResponse> {
    const auto setup = resolve_setup(entry, request.problem, request.library);
    if (!problem_has_elements(setup->problem)) {
      return Result<ParetoResponse>::failure(
          diag::kEmptyProblem, empty_problem_message(entry.model().graph().name()));
    }
    ParetoResponse response{
        .model = entry.model().graph().name(),
        .points = synth::pareto_front(setup->library, setup->problem.apps, request.options),
        .applications = setup->problem.apps.size(),
        .library_origin = setup->library_origin,
    };
    return Result<ParetoResponse>::success(std::move(response));
  });
}

Result<AnalyzeResponse> eval_analyze(const StoreEntry& entry, const AnalyzeRequest& request) {
  return guarded<AnalyzeResponse>([&]() -> Result<AnalyzeResponse> {
    const spi::Graph& graph = entry.model().graph();
    AnalyzeResponse response;
    response.model = graph.name();
    response.request = request;

    if (request.deadlock) {
      for (const auto& d : analysis::find_structural_deadlocks(graph)) {
        response.deadlocks.push_back({.cycle = process_names(graph, d.cycle),
                                      .initial_tokens = d.initial_tokens,
                                      .required_tokens = d.required_tokens,
                                      .description = d.describe(graph)});
      }
    }
    if (request.buffers) response.buffer_flows = analysis::analyze_buffers(graph);
    if (request.timing) {
      response.latency_checks =
          analysis::check_latency_constraints(graph, request.include_reconfiguration);
    }
    if (request.structure) {
      response.structure.acyclic = analysis::is_acyclic(graph);
      response.structure.sources = process_names(graph, analysis::source_processes(graph));
      response.structure.sinks = process_names(graph, analysis::sink_processes(graph));
      response.structure.dead = process_names(graph, analysis::dead_processes(graph));
      response.structure.components = analysis::weak_components(graph).size();
    }
    return Result<AnalyzeResponse>::success(std::move(response));
  });
}

}  // namespace

// --- construction ------------------------------------------------------------

Session::Session() : Session(nullptr, nullptr) {}

Session::Session(std::shared_ptr<Executor> executor) : Session(nullptr, std::move(executor)) {}

Session::Session(std::shared_ptr<ModelStore> store, std::shared_ptr<Executor> executor)
    : store_(std::move(store)), executor_(std::move(executor)) {
  if (!store_) store_ = std::make_shared<ModelStore>();
  if (!executor_) executor_ = std::make_shared<SerialExecutor>();
  targets_ = std::make_shared<SpecCache>(store_);
}

// --- tenant binding ----------------------------------------------------------

void Session::bind_tenant(std::shared_ptr<StoreView> view,
                          std::shared_ptr<AdmissionController> admission) {
  view_ = std::move(view);
  admission_ = std::move(admission);
  tenant_ = view_ ? view_->tenant() : TenantContext{};
  // Envelope targets must load under the tenant too — a spec resolved by a
  // bound session issues a tenant-owned, quota-checked, salted handle.
  targets_->bind_view(view_);
}

// --- loading (forwarded to the store, via the tenant view when bound) --------

Result<ModelInfo> Session::load_text(std::string_view text, std::string_view name) {
  return view_ ? view_->load_text(text, name) : store_->load_text(text, name);
}

Result<ModelInfo> Session::load_file(const std::string& path) {
  return view_ ? view_->load_file(path) : store_->load_file(path);
}

Result<ModelInfo> Session::load_builtin(std::string_view name) {
  return view_ ? view_->load_builtin(name) : store_->load_builtin(name);
}

Result<ModelInfo> Session::load_builtin(const LoadBuiltinRequest& request) {
  return view_ ? view_->load_builtin(request) : store_->load_builtin(request);
}

Result<ModelInfo> Session::load_model(std::string_view spec) {
  return view_ ? view_->load_model(spec) : store_->load_model(spec);
}

Result<ModelInfo> Session::load(variant::VariantModel model, std::string_view origin) {
  return view_ ? view_->load(std::move(model), origin) : store_->load(std::move(model), origin);
}

UnloadStatus Session::unload(ModelId id) {
  return view_ ? view_->unload(id) : store_->unload(id);
}

Result<ModelInfo> Session::resolve(const std::string& spec,
                                   const std::vector<std::string>& options) {
  return targets_->resolve(spec, options);
}

std::vector<ModelId> Session::resolved_handles(const std::string& spec) const {
  return targets_->handles(spec);
}

// --- result caching ----------------------------------------------------------

std::shared_ptr<ResultCache> Session::enable_cache(CacheConfig config) {
  return store_->enable_cache(config);
}

std::optional<CacheStats> Session::cache_stats() const { return store_->cache_stats(); }

// --- introspection ----------------------------------------------------------

std::vector<ModelInfo> Session::models() const {
  return view_ ? view_->models() : store_->models();
}

Result<ModelInfo> Session::info(ModelId id) const {
  return view_ ? view_->info(id) : store_->info(id);
}

std::vector<std::string> Session::builtins() { return builtin_names(); }

// --- pipeline operations ----------------------------------------------------

Result<ValidateResponse> Session::validate(ModelId id) const {
  const ModelStore::Snapshot snapshot = store_->find(id);
  if (!snapshot) return unknown_model<ValidateResponse>(id);
  return guarded<ValidateResponse>([&]() -> Result<ValidateResponse> {
    ValidateResponse response{.model = snapshot->model().graph().name(), .findings = {}};
    if (snapshot->model().interface_count() > 0) {
      // Includes the core graph pass with the mutual-exclusivity oracle.
      response.findings = variant::validate_variants(snapshot->model());
    } else {
      response.findings = spi::validate(snapshot->model().graph());
    }
    return Result<ValidateResponse>::success(std::move(response));
  });
}

Result<spi::ModelStatistics> Session::stats(ModelId id) const {
  const ModelStore::Snapshot snapshot = store_->find(id);
  if (!snapshot) return unknown_model<spi::ModelStatistics>(id);
  return guarded<spi::ModelStatistics>([&] {
    return Result<spi::ModelStatistics>::success(
        spi::collect_statistics(snapshot->model().graph()));
  });
}

Result<std::string> Session::dot(ModelId id) const {
  const ModelStore::Snapshot snapshot = store_->find(id);
  if (!snapshot) return unknown_model<std::string>(id);
  return guarded<std::string>([&] {
    return Result<std::string>::success(snapshot->model().interface_count() > 0
                                            ? variant::to_dot(snapshot->model())
                                            : spi::to_dot(snapshot->model().graph()));
  });
}

Result<std::string> Session::write_text(ModelId id) const {
  const ModelStore::Snapshot snapshot = store_->find(id);
  if (!snapshot) return unknown_model<std::string>(id);
  // variant::write_text appends the versioned `variants v1` section for
  // models with interfaces, so variant structure is no longer silently
  // dropped on save; flat models keep emitting plain graph text.
  return guarded<std::string>(
      [&] { return Result<std::string>::success(variant::write_text(snapshot->model())); });
}

namespace {

/// The uncached evaluation of one typed request against a snapshot.
/// `executor` powers compare's nested strategy fan-out.
template <typename Request>
auto eval_uncached(const StoreEntry& entry, const Request& request, Executor& executor) {
  if constexpr (std::is_same_v<Request, CompareRequest>) {
    return detail::eval_compare(entry, request, executor);
  } else if constexpr (std::is_same_v<Request, SimulateRequest>) {
    return eval_simulate(entry, request);
  } else if constexpr (std::is_same_v<Request, AnalyzeRequest>) {
    return eval_analyze(entry, request);
  } else if constexpr (std::is_same_v<Request, ExploreRequest>) {
    return eval_explore(entry, request);
  } else {
    static_assert(std::is_same_v<Request, ParetoRequest>);
    return eval_pareto(entry, request);
  }
}

/// The response type a request type evaluates to.
template <typename Request>
using ResponseOf = typename decltype(eval_uncached(std::declval<const StoreEntry&>(),
                                                   std::declval<const Request&>(),
                                                   std::declval<Executor&>()))::value_type;

/// The miss half for one typed request: evaluate, then fill `key`.
template <typename Request>
Result<ResponseOf<Request>> fill(const std::shared_ptr<ResultCache>& cache,
                                 const ResultCache::Key& key, const StoreEntry& entry,
                                 const Request& request, Executor& executor) {
  return detail::eval_and_fill(cache, key,
                               [&] { return eval_uncached(entry, request, executor); });
}

/// A typed endpoint's reply: the envelope reply unwrapped to its one kind.
template <typename Response>
Result<Response> unwrap(Result<AnyResponse> result) {
  if (!result.ok()) return Result<Response>::failure(result.diagnostics());
  support::DiagnosticList notes = result.diagnostics();
  return Result<Response>::success(std::get<Response>(std::move(result).value()),
                                   std::move(notes));
}

}  // namespace

Result<AnalyzeResponse> Session::analyze(const AnalyzeRequest& request) const {
  return unwrap<AnalyzeResponse>(call({.payload = request}));
}

Result<SimulateResponse> Session::simulate(const SimulateRequest& request) const {
  return unwrap<SimulateResponse>(call({.payload = request}));
}

Result<ExploreResponse> Session::explore(const ExploreRequest& request) const {
  return unwrap<ExploreResponse>(call({.payload = request}));
}

Result<ParetoResponse> Session::pareto(const ParetoRequest& request) const {
  return unwrap<ParetoResponse>(call({.payload = request}));
}

Result<CompareResponse> Session::compare(const CompareRequest& request) const {
  return unwrap<CompareResponse>(call({.payload = request}));
}

// --- the unified envelope (v5) ----------------------------------------------

namespace {

/// Lifts a typed Result into the envelope's Result<AnyResponse>, keeping
/// diagnostics (failure lists and success notes) intact.
template <typename Response>
Result<AnyResponse> to_any(Result<Response> result) {
  if (!result.ok()) return Result<AnyResponse>::failure(result.diagnostics());
  support::DiagnosticList notes = result.diagnostics();
  return Result<AnyResponse>::success(AnyResponse{std::move(result).value()}, std::move(notes));
}

/// The two halves of the cache seam over an envelope payload, sharing one
/// key. Session::call runs both on the calling thread; Session::submit
/// probes on the submitting thread and fills in a miss's executor task.
ResultCache::Key cache_key_any(const StoreEntry& entry, const RequestPayload& payload) {
  return std::visit([&](const auto& request) { return detail::cache_key(entry, request); },
                    payload);
}

std::optional<Result<AnyResponse>> probe_any(const std::shared_ptr<ResultCache>& cache,
                                             const ResultCache::Key& key,
                                             const RequestPayload& payload) {
  return std::visit(
      [&](const auto& request) -> std::optional<Result<AnyResponse>> {
        using Request = std::decay_t<decltype(request)>;
        if (const auto hit = detail::probe_cache<ResponseOf<Request>>(cache, key)) {
          return to_any(*hit);
        }
        return std::nullopt;
      },
      payload);
}

/// Raw executor pointer: see Session::submit.
Result<AnyResponse> fill_any(const std::shared_ptr<ResultCache>& cache,
                             const ResultCache::Key& key, const StoreEntry& entry,
                             const RequestPayload& payload, Executor* executor) {
  return std::visit(
      [&](const auto& request) { return to_any(fill(cache, key, entry, request, *executor)); },
      payload);
}

}  // namespace

Result<ModelId> Session::resolve_target(const AnyRequest& request) const {
  if (request.target.empty()) {
    if (!request.target_options.empty()) {
      return Result<ModelId>::failure(diag::kBadOption,
                                      "envelope target options require a target spec");
    }
    const ModelId id = model_of(request.payload);
    // A bound session only evaluates ids its own view issued — a raw handle
    // guessed (or leaked) from another tenant fails exactly like an unknown
    // model, never disclosing that it exists.
    if (view_ && !view_->owns(id)) return unknown_model<ModelId>(id);
    return Result<ModelId>::success(id);
  }
  Result<ModelInfo> resolved = targets_->resolve(request.target, request.target_options);
  if (!resolved.ok()) return Result<ModelId>::failure(resolved.diagnostics());
  return Result<ModelId>::success(resolved.value().id);
}

std::optional<AdmissionDecision> Session::shed() const {
  if (!admission_) return std::nullopt;
  const AdmissionDecision decision = admission_->admit(executor_->stats());
  if (decision.admitted) return std::nullopt;
  return decision;
}

namespace {

/// The typed shed reply: diag::kOverload plus a parseable retry-after hint
/// ("retry-after-ms N") so clients can back off without guessing.
Result<AnyResponse> overload_failure(const AdmissionDecision& decision) {
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "server overloaded: projected deadline-miss rate %.3f exceeds the bound; "
                "retry-after-ms %lld",
                decision.projected_miss_rate,
                static_cast<long long>(decision.retry_after.count()));
  return Result<AnyResponse>::failure(diag::kOverload, detail);
}

}  // namespace

Result<AnyResponse> Session::call(const AnyRequest& request) const {
  if (const auto decision = shed()) return overload_failure(*decision);
  const Result<ModelId> target = resolve_target(request);
  if (!target.ok()) return Result<AnyResponse>::failure(target.diagnostics());
  RequestPayload payload = request.payload;
  set_model(payload, target.value());
  const ModelStore::Snapshot snapshot = store_->find(target.value());
  if (!snapshot) return unknown_model<AnyResponse>(target.value());
  // Inline calls evaluate on this thread, so the trace (if the envelope
  // carries one) installs here; no queue-wait span on this path.
  obs::TraceScope scope{request.trace.get()};
  const std::shared_ptr<ResultCache> cache = store_->cache();
  const ResultCache::Key key = cache_key_any(*snapshot, payload);
  if (auto hit = probe_any(cache, key, payload)) return std::move(*hit);
  return fill_any(cache, key, *snapshot, payload, executor_.get());
}

// --- envelope batch surface --------------------------------------------------

namespace {

using Task = std::function<void()>;

/// Envelope slot tasks grouped by identical SubmitOptions, in
/// first-appearance order. Each group becomes one executor submission, so
/// priority bands and EDF deadlines hold per slot while slots that agree
/// still share one self-scheduling batch. Tasks are *moved* into their
/// group — a slot task owns the request payload and snapshot, so copying it
/// would duplicate every request's data.
std::vector<std::pair<SubmitOptions, std::vector<Task>>> group_by_options(
    const std::vector<SubmitOptions>& options, std::vector<Task>&& tasks) {
  std::vector<std::pair<SubmitOptions, std::vector<Task>>> groups;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto group = groups.begin();
    for (; group != groups.end(); ++group) {
      if (group->first == options[i]) break;
    }
    if (group == groups.end()) {
      groups.push_back({options[i], {}});
      group = std::prev(groups.end());
    }
    group->second.push_back(std::move(tasks[i]));
  }
  return groups;
}

}  // namespace

BatchHandle<AnyResponse> Session::submit(std::vector<AnyRequest> requests,
                                         SlotCallback<AnyResponse> on_slot,
                                         bool participate) const {
  auto state =
      std::make_shared<detail::BatchState<AnyResponse>>(requests.size(), std::move(on_slot));
  if (const auto decision = shed()) {
    // Shed before submission: every slot lands with the typed overload
    // failure and the executor never sees the work — queueing it anyway is
    // exactly how an overloaded tail gets worse.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      state->deliver(i, overload_failure(*decision));
    }
    return {std::move(state), executor_};
  }
  const std::shared_ptr<ResultCache> cache = store_->cache();
  // Each compare slot fans its strategy jobs across the same executor; the
  // self-scheduling pool lets the slot's thread help drain its own jobs, so
  // nesting cannot deadlock. Deliberately a raw pointer: the executor
  // outlives every queued task (the handle keeps it alive, and the pool
  // destructor drains its queue before joining), while an owning copy in a
  // task could make a *worker* drop the last reference and self-join.
  Executor* executor = executor_.get();

  std::vector<SubmitOptions> options;
  std::vector<Task> tasks;
  options.reserve(requests.size());
  tasks.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    AnyRequest& request = requests[i];
    // Target and snapshot resolve now: the batch sees the store as of
    // submission, so a concurrent unload (or session move/destruction)
    // cannot touch a slot. Tasks capture only the batch state, the
    // snapshot and the cache; cancelled slots never touch the cache.
    const Result<ModelId> target = resolve_target(request);
    ModelStore::Snapshot snapshot;
    ResultCache::Key key;
    std::optional<support::DiagnosticList> failure;
    if (target.ok()) {
      set_model(request.payload, target.value());
      snapshot = store_->find(target.value());
    } else {
      failure = target.diagnostics();
    }
    if (snapshot) {
      // The cache probe runs here, on the submitting thread: a hit lands at
      // once and never waits in the executor queue behind misses. Its
      // trace gets the cache-probe span and no queue-wait.
      key = cache_key_any(*snapshot, request.payload);
      std::optional<Result<AnyResponse>> hit;
      {
        obs::TraceScope scope{request.trace.get()};
        hit = probe_any(cache, key, request.payload);
      }
      if (hit) {
        state->deliver(i, std::move(*hit));
        continue;
      }
    }
    // Queue-wait starts at submission; the task ends it as it starts, and
    // the evaluation seams record against the installed trace.
    if (request.trace) request.trace->mark_queued();
    options.push_back(request.options);
    tasks.push_back([state, cache, executor, i, key, payload = std::move(request.payload),
                     snapshot = std::move(snapshot), failure = std::move(failure),
                     trace = std::move(request.trace)] {
      if (trace) trace->end_queue_wait();
      obs::TraceScope scope{trace.get()};
      Result<AnyResponse> result = [&]() -> Result<AnyResponse> {
        if (state->core.cancel_requested()) {
          return Result<AnyResponse>::failure(detail::cancelled_diagnostics(i));
        }
        if (failure) return Result<AnyResponse>::failure(*failure);
        if (!snapshot) return unknown_model<AnyResponse>(model_of(payload));
        // A miss: the probe already ran at submission, so evaluate and fill
        // without looking up again — one lookup per request.
        return fill_any(cache, key, *snapshot, payload, executor);
      }();
      state->deliver(i, std::move(result));
    });
  }
  auto groups = group_by_options(options, std::move(tasks));
  if (participate && groups.size() == 1) {
    // Uniform options: the participating run() — safe even from inside a
    // task already on the session's pool.
    executor_->run(std::move(groups.front().second), groups.front().first);
  } else {
    for (auto& [group_options, group] : groups) {
      executor_->submit(std::move(group), group_options);
    }
  }
  return {std::move(state), executor_};
}

std::vector<Result<AnyResponse>> Session::call_batch(
    const std::vector<AnyRequest>& requests) const {
  return submit(requests, {}, /*participate=*/true).wait();
}

}  // namespace spivar::api
