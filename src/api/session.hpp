// api::Session — the unified entry point over the whole pipeline.
//
// A Session is a *view* over a ModelStore plus an execution policy. The
// store owns the models (immutable snapshots, see store.hpp); the session
// exposes every pipeline stage of the paper — validate, analyze, simulate,
// explore, pareto, compare — as uniform request/response operations
// returning Result<T>. No exception escapes a session call: parse errors,
// model errors and unexpected failures surface as diagnostics in the failed
// Result.
//
//   api::Session session;                         // private store, serial
//   auto model = session.load_builtin("fig2");
//   auto sim = session.simulate({.model = model.value().id});
//
//   auto store = std::make_shared<api::ModelStore>();
//   api::Session a{store};                        // many sessions,
//   api::Session b{store, api::make_executor(4)}; // one model store
//
// Batches go through the AnyRequest envelope: call_batch blocks, submit
// streams (a BatchHandle with per-slot futures, an on_slot callback, and
// cancel()) and answers result-cache hits before it returns. Batch tasks
// capture store snapshots — never the session — so sessions are movable
// even with batches in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/admission.hpp"
#include "api/batch.hpp"
#include "api/executor.hpp"
#include "api/options.hpp"
#include "api/registry.hpp"
#include "api/requests.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"
#include "api/spec_cache.hpp"
#include "api/store.hpp"
#include "api/store_view.hpp"
#include "api/tenant.hpp"
#include "spi/statistics.hpp"
#include "variant/model.hpp"

namespace spivar::api {

class Session {
 public:
  /// Private store, serial execution — batches evaluate on the calling
  /// thread.
  Session();
  /// Private store with an injected execution policy (make_executor(jobs)).
  explicit Session(std::shared_ptr<Executor> executor);
  /// Attaches to a shared store: models loaded by any attached session are
  /// visible to all of them, and each session brings its own execution
  /// policy (null falls back to serial).
  explicit Session(std::shared_ptr<ModelStore> store,
                   std::shared_ptr<Executor> executor = nullptr);

  // Copies are deleted (two sessions silently sharing one store should be
  // explicit, via the store constructor). Moves are allowed: batch tasks
  // capture store snapshots, never `this`, so an in-flight batch keeps
  // running across a move. A moved-from session may only be destroyed or
  // assigned to.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  [[nodiscard]] const Executor& executor() const noexcept { return *executor_; }
  /// The shared model store; hand it to another Session to shard work.
  [[nodiscard]] const std::shared_ptr<ModelStore>& store() const noexcept { return store_; }

  /// Deadline-miss telemetry of the session's executor: tasks completed,
  /// deadline misses, and worst/summed lateness (see ExecutorStats).
  [[nodiscard]] ExecutorStats executor_stats() const noexcept { return executor_->stats(); }

  // --- tenant binding -------------------------------------------------------

  /// Binds this session to one tenant: every load/unload/enumeration below
  /// routes through `view` (tenant-scoped ids and quotas, salted content
  /// identity — including envelope target resolution), and when `admission`
  /// is set, call/call_batch/submit shed with a typed api-overload failure
  /// carrying a retry-after hint while the projected deadline-miss rate
  /// sits above the controller's bound. Either argument may be null; an
  /// unbound session is the default tenant and behaves exactly as before
  /// tenancy existed. Bind before use, not concurrently with calls.
  void bind_tenant(std::shared_ptr<StoreView> view,
                   std::shared_ptr<AdmissionController> admission = nullptr);

  /// The bound tenant's context; the default context when unbound.
  [[nodiscard]] const TenantContext& tenant() const noexcept { return tenant_; }
  /// The bound tenant view, null when unbound.
  [[nodiscard]] const std::shared_ptr<StoreView>& tenant_view() const noexcept { return view_; }
  /// The bound admission controller, null when none.
  [[nodiscard]] const std::shared_ptr<AdmissionController>& admission() const noexcept {
    return admission_;
  }

  // --- loading (forwarded to the store) -------------------------------------

  /// Parses a model from "spit" text. `name` overrides the model name for
  /// presentation (empty keeps the parsed one).
  Result<ModelInfo> load_text(std::string_view text, std::string_view name = {});

  /// Reads and parses a .spit file.
  Result<ModelInfo> load_file(const std::string& path);

  /// Instantiates a registry model with its default options.
  Result<ModelInfo> load_builtin(std::string_view name);

  /// Instantiates a registry model with a typed option struct, e.g.
  /// `load_builtin({.name = "synthetic", .options = models::SyntheticSpec{
  /// .variants = 4}})`. A struct that belongs to a different model fails
  /// with diagnostics.
  Result<ModelInfo> load_builtin(const LoadBuiltinRequest& request);

  /// Builtin name when it matches one, file path otherwise — the CLI's
  /// positional-model resolution in one place.
  Result<ModelInfo> load_model(std::string_view spec);

  /// Adopts an already-built model (programmatic construction).
  Result<ModelInfo> load(variant::VariantModel model, std::string_view origin = "adopted");

  /// Resolves a spec (builtin name or .spit path, with optional "key=value"
  /// builtin options) through the session's tombstone-aware target cache —
  /// the same cache AnyRequest::target resolution uses, so a spec resolved
  /// here and a later envelope naming the same target share one handle.
  /// Thread-safe.
  Result<ModelInfo> resolve(const std::string& spec,
                            const std::vector<std::string>& options = {});

  /// Every handle this session's target cache resolved for `spec` (across
  /// all option combinations), without loading — the service front end's
  /// `unload <spec>` support. Thread-safe.
  [[nodiscard]] std::vector<ModelId> resolved_handles(const std::string& spec) const;

  /// Tombstones the model in the store. Returns kUnloaded when this call
  /// removed a live model, kAlreadyUnloaded when the id had been unloaded
  /// before, and kNeverLoaded for ids the store never issued — the three
  /// cases are distinguishable forever because ids are never reused.
  /// In-flight batches that captured the model's snapshot finish unaffected;
  /// results cached for the id are invalidated.
  UnloadStatus unload(ModelId id);

  // --- result caching --------------------------------------------------------

  /// Enables the store's (snapshot, request) result cache — every eval path
  /// of every session on this store is fronted from now on. Idempotent;
  /// returns the active cache (see ModelStore::enable_cache).
  std::shared_ptr<ResultCache> enable_cache(CacheConfig config = {});

  /// Hit/miss/eviction/invalidation counters of the store's cache, or
  /// nullopt when caching is off.
  [[nodiscard]] std::optional<CacheStats> cache_stats() const;

  // --- introspection --------------------------------------------------------

  [[nodiscard]] std::vector<ModelInfo> models() const;
  [[nodiscard]] Result<ModelInfo> info(ModelId id) const;
  [[nodiscard]] static std::vector<std::string> builtins();

  // --- pipeline operations --------------------------------------------------

  /// Core graph validation plus the variant pass when the model has
  /// interfaces. Findings (even errors) are the payload.
  [[nodiscard]] Result<ValidateResponse> validate(ModelId id) const;

  [[nodiscard]] Result<spi::ModelStatistics> stats(ModelId id) const;

  /// GraphViz rendering (variant-aware when the model has interfaces).
  [[nodiscard]] Result<std::string> dot(ModelId id) const;

  /// Canonical "spit" text of the model — including the versioned variant
  /// section (clusters, interfaces, selection rules) when the model has
  /// one, so `--opt`-configured variant models round-trip losslessly.
  [[nodiscard]] Result<std::string> write_text(ModelId id) const;

  [[nodiscard]] Result<AnalyzeResponse> analyze(const AnalyzeRequest& request) const;
  [[nodiscard]] Result<SimulateResponse> simulate(const SimulateRequest& request) const;
  [[nodiscard]] Result<ExploreResponse> explore(const ExploreRequest& request) const;
  [[nodiscard]] Result<ParetoResponse> pareto(const ParetoRequest& request) const;

  /// Runs the requested synthesis strategies (all five when unspecified)
  /// over the model and returns the ranked outcome table — Table 1 of the
  /// paper as one call. Order-sensitive baselines can sweep application
  /// orders; ranking follows the request's objective chain (total cost by
  /// default; see CompareRequest::objectives); strategy runs dispatch
  /// across the session's executor.
  [[nodiscard]] Result<CompareResponse> compare(const CompareRequest& request) const;

  // --- the unified envelope (v5) --------------------------------------------
  //
  // One entry point for every evaluation kind: the AnyRequest envelope
  // carries the payload variant, an optional target spec (resolved through
  // a tombstone-aware per-session target cache — wire clients never hold
  // handles), and per-slot SubmitOptions. The per-kind methods above are
  // call() on a one-kind envelope, unwrapped: the same tenant check, shed
  // gate, result-cache seam and bytes, behind the convenient typed surface.

  /// Evaluates one envelope (target resolved first when set).
  [[nodiscard]] Result<AnyResponse> call(const AnyRequest& request) const;

  /// Heterogeneous blocking batch — submit(participate) plus wait(): every slot
  /// evaluates independently across the executor (one failing slot never
  /// aborts the batch — it carries its diagnostics) and the call returns
  /// all slots in order, bit-identical to per-kind and serial evaluation.
  /// When every slot shares one SubmitOptions the calling thread
  /// participates in the batch, so a uniform batch is safe from inside a
  /// pool task; mixed options split into per-options submissions so
  /// priority and deadline hold per slot.
  [[nodiscard]] std::vector<Result<AnyResponse>> call_batch(
      const std::vector<AnyRequest>& requests) const;

  /// Heterogeneous streaming batch: snapshots resolve at submission (the
  /// batch sees the store as of submit), slots land through `on_slot` and
  /// the handle's futures, handle.wait() yields what call_batch would, and
  /// each slot's SubmitOptions select its scheduling band — a high-priority
  /// simulate overtakes a queued normal compare from the same batch. With
  /// `participate`, a batch whose slots share one SubmitOptions runs with
  /// the calling thread helping (the call returns once it has landed);
  /// mixed options are submitted per options group either way.
  ///
  /// Each slot probes the result cache once, on the calling thread, before
  /// it is queued: a hit lands (on_slot fires, its future is ready) before
  /// submit returns and never becomes an executor task, so it never waits
  /// behind queued misses. A miss becomes a task that evaluates and fills
  /// the cache without probing again. With a persistent tier, the disk
  /// probe behind a memory miss also runs on the calling thread. Hits are
  /// therefore invisible to executor_stats() and to the admission
  /// controller's miss-rate projection, which count executor tasks only.
  [[nodiscard]] BatchHandle<AnyResponse> submit(std::vector<AnyRequest> requests,
                                                SlotCallback<AnyResponse> on_slot = {},
                                                bool participate = false) const;

 private:
  /// Resolves the envelope's target spec (when set) into the payload's
  /// model handle; returns the resolution failure otherwise.
  [[nodiscard]] Result<ModelId> resolve_target(const AnyRequest& request) const;

  /// The overload gate at the head of call/call_batch/submit: nullopt
  /// admits, a decision sheds (the caller turns it into per-slot failures).
  [[nodiscard]] std::optional<AdmissionDecision> shed() const;

  std::shared_ptr<ModelStore> store_;
  std::shared_ptr<Executor> executor_;
  /// Tombstone-aware target-spec memoization behind AnyRequest::target.
  /// Shared so sessions stay movable; SpecCache locks itself, so
  /// call()/submit stay safe from several threads.
  std::shared_ptr<SpecCache> targets_;

  TenantContext tenant_;  ///< default-constructed until bind_tenant
  std::shared_ptr<StoreView> view_;
  std::shared_ptr<AdmissionController> admission_;
};

}  // namespace spivar::api
