// Umbrella header for the spivar::api layer — the only include front ends
// need.
//
// v8 surface — the unified request envelope remains the primary entry
// point; the result cache is *tiered* (a persistent on-disk second tier,
// content-fingerprint keyed, survives process restarts); and the store /
// session stack is now *multi-tenant* with lateness-driven overload
// shedding:
//   * TenantContext / TenantQuota (tenant.hpp) — a tenant's identity (name,
//     runtime tag, restart-stable content salt derived from the name) and
//     its limits (live models, cache entries, in-flight requests). Tag 0 is
//     the default tenant: bit-identical to pre-tenancy behavior everywhere.
//   * StoreView (store_view.hpp) — one tenant's namespace over one shared
//     ModelStore: loads are quota-checked, content-salted and recorded as
//     tenant-owned; unload/info/models refuse ids the view never issued
//     (no cross-tenant tombstones or cache invalidations); builtin and
//     corpus *names* stay globally loadable while the instantiated models
//     are tenant-scoped.
//   * AdmissionController (admission.hpp) — rolling-window projection of
//     the executor's deadline-miss rate; above the configured bound,
//     Session::call/call_batch/submit shed with a typed diag::kOverload
//     failure carrying a "retry-after-ms N" hint instead of queueing work
//     that would miss anyway. Session::bind_tenant wires both into a
//     session.
//   * AnyRequest / AnyResponse (requests.hpp / responses.hpp) — one
//     std::variant envelope over every evaluation kind (simulate, analyze,
//     explore, pareto, compare) plus an optional target spec (builtin name
//     or .spit path, resolved through a tombstone-aware per-session target
//     cache) and per-slot SubmitOptions{priority, deadline}. ModelInfo
//     carries the model's canonical content fingerprint.
//   * Session::call / call_batch / submit (session.hpp) — one uniform
//     entry point, one heterogeneous blocking batch, one heterogeneous
//     streaming batch (BatchHandle<AnyResponse>). The per-kind endpoints
//     are call() on a one-kind envelope, so an envelope slot is
//     bit-identical to its dedicated endpoint and shares its cache
//     entries; slots grouped by identical SubmitOptions become
//     one executor submission each, so priority bands and EDF deadlines
//     hold per slot.
//   * wire (wire.hpp) — versioned line-oriented codec for the envelope:
//     every AnyRequest/Result<AnyResponse> (error responses included)
//     round-trips bit-identically as a plain-text frame; malformed and
//     old-version frames decode into line-numbered diag::kWireError
//     failures. Plus the service frames (batch headers, control commands,
//     info replies) spoken by tools/spivar_serve and `spivar_cli remote`.
//     The persistent cache tier stores these same frames on disk.
//   * ModelStore (store.hpp) — thread-safe, share-by-snapshot model
//     ownership: loads produce immutable `shared_ptr<const StoreEntry>`
//     snapshots (model + registry entry + memoized synthesis setup +
//     memoized content fingerprint, each carrying its id and load
//     generation), unload is tombstone-only (UnloadStatus three-way
//     contract), and any number of sessions attach to one store.
//     enable_cache() attaches the result cache (CacheConfig::persist adds
//     the disk tier).
//   * ResultCache (cache.hpp) — sharded cost-aware LRU keyed by (store
//     entry id, load generation, request kind, canonical request
//     fingerprint, content fingerprint); every entry is charged its
//     measured eval time and eviction drops the cheapest entry in the LRU
//     tail's cost window (CacheConfig::cost_window — self-tuning with
//     adaptive_window). With CacheConfig::persist, inserts write through to
//     a persist::DiskTier, memory misses consult disk and promote on hit,
//     and evicted entries spill down; persist_all()/clear(include_disk)
//     are the admin hooks. CacheStats accounts hit/miss/eviction counters,
//     cached/saved/evicted cost, the live cost window, and the disk tier's
//     hits/spills/promotes/skipped/fill.
//   * persist::DiskTier (persist/disk_tier.hpp) — the durable tier itself:
//     one versioned, CRC-checked entry file per (content fingerprint,
//     kind, request fingerprint) key; corrupt or stale entries are skipped
//     with a diagnostic and compacted away, never served.
//   * Session (session.hpp) — a movable view over (store, executor):
//     load_text/load_file/load_model, typed load_builtin(LoadBuiltinRequest),
//     resolve() (spec -> handle through the target cache),
//     validate/stats/dot/write_text (variant-aware `variants v1` spit
//     round-trip), the per-kind analyze/simulate/explore/pareto/compare,
//     the AnyRequest envelope — call(), blocking call_batch(), streaming
//     submit() — and executor_stats() for deadline telemetry.
//   * Executor (executor.hpp) — SerialExecutor / self-scheduling
//     ThreadPoolExecutor / make_executor(jobs); run() participates in its
//     own batch (nested dispatch is deadlock-free), submit() streams, both
//     take SubmitOptions{priority, deadline} (priority bands drain first,
//     EDF within a band), and stats() reports ExecutorStats{completed,
//     deadline_misses, max_lateness, total_lateness} recorded per task at
//     completion.
//   * SpecCache (spec_cache.hpp) — thread-safe, tombstone-aware spec →
//     handle memoization: the session's envelope target resolution and
//     the CLI's `--then` chains over one store.
//   * BatchHandle (batch.hpp) — per-slot shared_futures, on_slot streaming
//     callback, wait(), cooperative cancel() (diag::kCancelled); slot tasks
//     capture store snapshots, so handles survive unloads and session moves.
//   * BuiltinOptions (options.hpp) — std::variant of per-model option
//     structs plus parse_builtin_options() for "key=value" assignments.
//   * Result<T> (result.hpp) — value-or-diagnostics; no exception crosses
//     the session boundary.
//   * render() (format.hpp) — stable plain-text rendering of every
//     response type (AnyResponse dispatch included), CacheStats and
//     ExecutorStats.
#pragma once

#include "api/admission.hpp"  // IWYU pragma: export
#include "api/batch.hpp"      // IWYU pragma: export
#include "api/cache.hpp"      // IWYU pragma: export
#include "api/executor.hpp"   // IWYU pragma: export
#include "api/format.hpp"     // IWYU pragma: export
#include "api/options.hpp"    // IWYU pragma: export
#include "api/registry.hpp"   // IWYU pragma: export
#include "api/requests.hpp"   // IWYU pragma: export
#include "api/responses.hpp"  // IWYU pragma: export
#include "api/result.hpp"     // IWYU pragma: export
#include "api/session.hpp"    // IWYU pragma: export
#include "api/spec_cache.hpp" // IWYU pragma: export
#include "api/store.hpp"      // IWYU pragma: export
#include "api/store_view.hpp" // IWYU pragma: export
#include "api/tenant.hpp"     // IWYU pragma: export
#include "api/wire.hpp"       // IWYU pragma: export
#include "persist/disk_tier.hpp"  // IWYU pragma: export
