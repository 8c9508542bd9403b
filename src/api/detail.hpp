// Internal helpers shared by the api translation units (store.cpp,
// session.cpp, compare.cpp). Not part of the public api surface — do not
// include from api.hpp or front ends.
#pragma once

#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "api/cache.hpp"
#include "api/requests.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"
#include "api/store.hpp"
#include "obs/trace.hpp"
#include "spi/textio.hpp"
#include "support/diagnostics.hpp"
#include "synth/target.hpp"

namespace spivar::api {
class Executor;
}  // namespace spivar::api

namespace spivar::api::detail {

/// Shared failure for operations given a handle the session doesn't hold.
template <typename T>
Result<T> unknown_model(ModelId id) {
  return Result<T>::failure(diag::kUnknownModel,
                            id.valid() ? "no model with handle #" + std::to_string(id.value())
                                       : "invalid (default-constructed) model handle");
}

/// Runs `fn` (returning Result<T>) with every exception converted into a
/// failed Result — the session's no-throw boundary.
template <typename T, typename Fn>
Result<T> guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const spi::ParseError& e) {
    return Result<T>::failure(diag::kParseError, e.what());
  } catch (const support::ModelError& e) {
    return Result<T>::failure(diag::kModelError, e.what());
  } catch (const std::exception& e) {
    return Result<T>::failure(diag::kInternalError, e.what());
  }
}

/// Shared guard for the synthesis operations: a problem is explorable iff
/// some application contributes at least one element.
inline bool problem_has_elements(const synth::SynthesisProblem& problem) {
  for (const synth::Application& app : problem.apps) {
    if (!app.elements.empty()) return true;
  }
  return false;
}

inline std::string empty_problem_message(const std::string& model_name) {
  return "model '" + model_name + "' yields no synthesis elements (only virtual processes?)";
}

// --- snapshot evaluation seam ------------------------------------------------
//
// The whole pipeline evaluates against immutable StoreEntry snapshots, never
// against a Session: batch tasks capture a snapshot (keeping the model alive
// across unloads and session moves). The other kinds evaluate in
// session.cpp; compare fans its strategy jobs across `executor` (nested
// dispatch is safe on the self-scheduling pool).
[[nodiscard]] Result<CompareResponse> eval_compare(const StoreEntry& entry,
                                                   const CompareRequest& request,
                                                   Executor& executor);

// --- result-cache seam -------------------------------------------------------
//
// Every evaluation crosses the store's result cache in two halves that share
// one key: probe_cache looks the request up (both tiers), and on a miss
// eval_and_fill evaluates and memoizes under the same key without looking up
// again — so each request counts exactly one lookup whether the halves run
// on one thread (the typed endpoints, Session::call) or on two
// (Session::submit probes on the submitting thread and fills in the
// executor task). Hits are copies of the memoized Result, bit-identical to a
// cold eval: results are deterministic per (snapshot, request).

/// The cache key of `request` against `entry`. Its kind and fingerprint both
/// derive from `request`, so a typed find can never alias across response
/// types. The content fingerprint is the restart-stable half of the key: it
/// routes the persistent tier and costs nothing here (memoized per entry,
/// and the store already computed it to describe the model).
template <typename Request>
ResultCache::Key cache_key(const StoreEntry& entry, const Request& request) {
  return {.model = entry.id().value(),
          .generation = entry.generation(),
          .kind = kind_of(request),
          .fingerprint = fingerprint(request),
          .content = entry.content_fingerprint()};
}

/// The probe half: the memoized result under `key`, null on a miss. A null
/// cache misses without recording anything; otherwise the lookup records a
/// cache-probe span on the installed trace.
template <typename Response>
std::shared_ptr<const Result<Response>> probe_cache(const std::shared_ptr<ResultCache>& cache,
                                                    const ResultCache::Key& key) {
  if (!cache) return nullptr;
  obs::ScopedSpan probe{obs::SpanKind::kCacheProbe};
  return cache->find<Response>(key);
}

/// The evaluate-and-fill half: runs `eval()` under an eval span and, with a
/// cache, memoizes its result under `key`, charging the entry its measured
/// evaluation time — the weight the cache's cost-aware eviction protects.
template <typename Eval>
auto eval_and_fill(const std::shared_ptr<ResultCache>& cache, const ResultCache::Key& key,
                   Eval&& eval) {
  const auto started = std::chrono::steady_clock::now();
  auto result = eval();
  const auto ended = std::chrono::steady_clock::now();
  if (obs::TraceContext* trace = obs::current_trace()) {
    // Reuse the cost clock readings: the eval span costs no extra clock reads.
    trace->add_span(obs::SpanKind::kEval, started, ended);
  }
  if (cache) {
    const auto cost_us =
        std::chrono::duration_cast<std::chrono::microseconds>(ended - started).count();
    cache->insert(key, result, static_cast<std::uint64_t>(cost_us));
  }
  return result;
}

}  // namespace spivar::api::detail
