// The traced run: the workload's request sequence replayed in process, with
// spans recorded from the benchmark's own code around calls into each
// layer's public functions. Nothing inside the program is instrumented.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace servebench {

struct LayerResult {
  std::map<std::string, double> metrics;  ///< per-layer metric values by name
  CheckReport report;
  std::uint64_t attempted = 0;  ///< requests the replay evaluated
  std::uint64_t failed = 0;     ///< of which failed
};

/// Replays `inputs` layer by layer. `latency_p50_us` is the end-to-end
/// median of an untraced run of the same inputs; the residual metric is it
/// minus the summed layer medians of the workload's request path.
/// `connection_rps` is each connection's reply rate in that run: the
/// executor pass offers the pool the same rates.
[[nodiscard]] LayerResult run_layers(const Inputs& inputs, double latency_p50_us,
                                     const std::vector<double>& connection_rps);

}  // namespace servebench
