// servebench — the end-to-end and per-layer benchmark of spivar_serve.
//
// One servebench process generates a workload's inputs from a seed, starts a
// fresh `spivar_serve --port 0 --jobs 2 --cache N` as a child, drives it over
// loopback TCP with pre-encoded `request v2` frames, and checks every reply
// after the measured phase (run.cpp). A traced run replays the same inputs in
// process and times the public functions of each layer (layers.cpp). The
// checkers live in checks.cpp so the benchmark's own tests can feed them
// corrupted replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/api.hpp"

namespace servebench {

using namespace spivar;

// --- workloads ---------------------------------------------------------------

enum class Workload { kServeHits, kServeMisses, kHitsUnderMisses, kCompareCorpus };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload workload);

/// One client connection of the load phase.
struct ConnectionPlan {
  enum class Role { kHit, kMiss, kCompare };
  Role role = Role::kHit;
  /// Requests kept in flight; 1 is a closed loop of one waiting caller.
  std::size_t depth = 1;
  /// Indexes into Inputs::requests, in send order. A hit connection cycles
  /// through them round after round; other connections send each once.
  std::vector<std::size_t> order;
  [[nodiscard]] bool cycles() const noexcept { return role == Role::kHit; }
};

/// One distinct request, kept compact: a miss workload holds tens of
/// thousands of them. Analyze, explore and pareto use the default payload.
struct RequestSpec {
  api::RequestKind kind = api::RequestKind::kSimulate;
  std::string target;
  /// Simulate: the seed (resolution random). Compare: the explore seed.
  std::uint64_t seed = 0;
};

[[nodiscard]] api::AnyRequest to_request(const RequestSpec& spec);

/// Everything a run sends, derived from (workload, seed) alone.
struct Inputs {
  Workload workload = Workload::kServeHits;
  std::uint64_t seed = 0;
  std::vector<RequestSpec> requests;      ///< distinct requests
  std::vector<std::size_t> warm;          ///< requests replayed by --warm
  std::vector<ConnectionPlan> connections;
  std::size_t cache_capacity = 0;         ///< spivar_serve --cache
};

/// Builds the inputs of one run. `seconds` sizes the pre-encoded request
/// supply of connections that never repeat a request.
[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed, double seconds);

/// Frame id of the `slot`-th frame of connection `connection`: unique across
/// the run, so a reply names the request it answers.
[[nodiscard]] constexpr std::uint64_t frame_id(std::size_t connection, std::size_t slot) {
  return (static_cast<std::uint64_t>(connection + 1) << 40) | slot;
}

/// The `kind "target" [seed]` label of a request, for messages.
[[nodiscard]] std::string describe(const RequestSpec& spec);

// --- checks ------------------------------------------------------------------

/// Every distinct problem the checks found; empty means correct.
struct CheckReport {
  std::vector<std::string> problems;
  void fail(std::string message) { problems.push_back(std::move(message)); }
  [[nodiscard]] bool ok() const noexcept { return problems.empty(); }
};

/// Decodes one served reply and checks what every reply must satisfy: it
/// decodes, echoes `expected_id`, is `ok`, and equals byte for byte the
/// frame `reference` (the same request evaluated by a serial, cacheless
/// in-process session) encodes to under that id. Returns the decoded reply
/// when it is `ok`, for the kind-specific checks.
std::optional<api::AnyResponse> check_reply(std::string_view raw, std::uint64_t expected_id,
                                            const api::Result<api::AnyResponse>& reference,
                                            const std::string& label, CheckReport& report);

/// Simulator invariants of a simulate reply against its model: total firings
/// equal the summed process firings and the summed per-mode firings, and on
/// every queue channel initial + produced - consumed - dropped = occupancy
/// <= max occupancy.
void check_simulate(const api::SimulateResponse& response, const variant::VariantModel& model,
                    const std::string& label, CheckReport& report);

/// Compare invariants: every outcome passes the corpus equivalence checker's
/// cost re-derivation from its published mapping, and superposition costs no
/// more than the independent rows together.
void check_compare(const api::CompareResponse& response, const variant::VariantModel& model,
                   const synth::ImplLibrary& library, const std::string& label,
                   CheckReport& report);

/// The paper's Table 1 totals on `compare fig2`: independent 34 and 38,
/// superposition 57, with variants 41.
void check_table1(const api::CompareResponse& response, CheckReport& report);

/// Hits and misses from a `cache-stats` control reply; nullopt when the
/// frame is not a readable info frame.
[[nodiscard]] std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_cache_stats(
    std::string_view info_frame);

/// The model, synthesis library and problem options a session uses for
/// `target` (builtin or `sweep/` name) by default, memoized.
struct ModelCase {
  variant::VariantModel model;
  synth::ImplLibrary library;
  synth::ProblemOptions problem;
};
class ModelCases {
 public:
  [[nodiscard]] const ModelCase& get(const std::string& target);

 private:
  std::map<std::string, ModelCase> cases_;
};

// --- statistics --------------------------------------------------------------

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);

}  // namespace servebench
