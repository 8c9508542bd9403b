// The end-to-end run: a fresh server per run, the measured load phase over
// loopback, the post-phase probes, and every output check.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace servebench {

struct RunOptions {
  std::string serve_binary;  ///< spivar_serve to start
  std::string work_dir;      ///< where the --warm log is written
  double seconds = 10;       ///< measured phase length
  /// When the servebench process started: setup_s counts from here.
  std::chrono::steady_clock::time_point process_start;
};

/// Counters and metrics of one end-to-end run.
struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  CheckReport report;
  /// End-to-end metric values by name (setup_s, throughput_rps, ...).
  std::map<std::string, double> metrics;
  /// Replies per second each connection received in the measured phase.
  std::vector<double> connection_rps;
};

[[nodiscard]] RunResult run_end_to_end(const Inputs& inputs, const RunOptions& options);

}  // namespace servebench
