// servebench — see bench.hpp and README.md.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --serve PATH/spivar_serve --work-dir DIR
//
// Prints one JSON object as the last line of stdout: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// of the traced run (--trace 1). Progress and check failures go to stderr.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "layers.hpp"
#include "run.hpp"

namespace {

using namespace servebench;

const std::chrono::steady_clock::time_point kProcessStart = std::chrono::steady_clock::now();

int usage() {
  std::cerr << "usage: servebench --workload serve_hits|serve_misses|hits_under_misses|"
               "compare_corpus\n"
               "                  --seed N --seconds S --trace 0|1 --serve PATH --work-dir DIR\n";
  return 2;
}

std::string unit_of(const std::string& metric) {
  if (metric == "setup_s") return "s";
  if (metric == "throughput_rps") return "req/s";
  if (metric == "server_peak_rss_mib") return "MiB";
  if (metric == "sim.ns_per_firing") return "ns";
  if (metric == "wire.reply_bytes") return "bytes";
  if (metric == "cache.hit_ratio") return "ratio";
  if (metric.find("_us") != std::string::npos) return "us";
  return "count";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << json_number(value)
        << ", \"unit\": \"" << unit_of(name) << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Workload> workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  RunOptions options{.process_start = kProcessStart};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = parse_workload(value);
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--serve") {
      options.serve_binary = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !workload || !(seconds > 0) || (trace != 0 && trace != 1) ||
      options.serve_binary.empty() || options.work_dir.empty()) {
    return usage();
  }
  options.seconds = seconds;

  try {
    const Inputs inputs = make_inputs(*workload, seed, seconds);
    RunResult run = run_end_to_end(inputs, options);
    for (const std::string& problem : run.report.problems) std::cerr << "check failed: " << problem << "\n";
    if (trace == 0) {
      print_result(run.correct, run.attempted, run.failed, run.metrics);
      return 0;
    }
    LayerResult layers = run_layers(inputs, run.metrics["latency_p50_us"], run.connection_rps);
    for (const std::string& problem : layers.report.problems) {
      std::cerr << "check failed: " << problem << "\n";
    }
    print_result(run.correct && layers.report.ok(), run.attempted + layers.attempted,
                 run.failed + layers.failed, layers.metrics);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "servebench: " << error.what() << "\n";
    return 1;
  }
}
