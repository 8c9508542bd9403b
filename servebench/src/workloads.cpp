// Workload inputs. Every run derives its requests from (workload, seed)
// alone; the model lists are fixed so that reply sizes stay within the
// bounds the checks assert (every reply of the first three workloads fits
// one 4096-byte write).
#include <algorithm>
#include <array>
#include <random>

#include "bench.hpp"
#include "corpus/spec.hpp"
#include "corpus/sweep.hpp"

namespace servebench {
namespace {

/// Simulate targets of the hit and miss workloads: fig1 and corpus models
/// whose simulate replies stay under 3.5 KB.
constexpr std::array<const char*, 8> kSimulateTargets = {
    "fig1",           "sweep/c1-s42",   "sweep/s42",        "sweep/i2c2-s42",
    "sweep/p2i2-s42", "sweep/v3-s1",    "sweep/p8v3c1-s42", "sweep/c2m2d1-s42",
};

/// Further builtins simulated by serve_hits.
constexpr std::array<const char*, 5> kBuiltinTargets = {
    "fig2", "fig3", "video_system", "multistandard_tv", "emission_control",
};

/// Models whose pareto replies stay under 3 KB.
constexpr std::array<const char*, 24> kParetoTargets = {
    "fig1",
    "fig2",
    "fig3",
    "video_system",
    "multistandard_tv",
    "sweep/p2c1-s42",
    "sweep/p2-s42",
    "sweep/p2v3c1-s42",
    "sweep/p2v4c1-s42",
    "sweep/p2i2c1-s42",
    "sweep/p2i2v3c1-s42",
    "sweep/p2i2v4c1-s42",
    "sweep/c1-s42",
    "sweep/v3c1-s42",
    "sweep/v4c1-s42",
    "sweep/i2c1-s42",
    "sweep/i2v3c1-s42",
    "sweep/i2v4c1-s42",
    "sweep/c2m2-s42",
    "sweep/c2m2d1-s42",
    "sweep/c2m2d2-s42",
    "sweep/c2m3-s42",
    "sweep/c2m3d1-s42",
    "sweep/c2m3d2-s42",
};

constexpr std::size_t kHitSeedsPerModel = 160;  ///< serve_hits simulate keys per model
constexpr std::size_t kHotKeys = 64;            ///< hits_under_misses hit-connection keys
constexpr std::size_t kMissDepth = 4;           ///< pipelined misses per connection
constexpr std::size_t kCompareConnections = 4;

/// Pre-encoded request supply of connections that never repeat a request,
/// per connection and measured second: well above what the server reaches.
constexpr double kMissSupplyPerSecond = 8000;
constexpr double kCompareSupplyPerSecond = 400;

/// splitmix64 finalizer: a bijection, so distinct counters give distinct
/// simulate seeds and no fresh request can hit the cache by accident.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

RequestSpec simulate(std::string target, std::uint64_t seed) {
  return {.kind = api::RequestKind::kSimulate, .target = std::move(target), .seed = seed};
}

RequestSpec make_request(api::RequestKind kind, std::string target) {
  return {.kind = kind, .target = std::move(target)};
}

std::vector<std::string> corpus_names() {
  std::vector<std::string> names;
  for (const corpus::CorpusEntry& entry : corpus::default_corpus()) names.push_back(entry.name);
  return names;
}

/// Streams of fresh simulate seeds: counter `i` of stream `stream` maps to a
/// seed no other (stream, i) of this run produces.
struct FreshSeeds {
  std::uint64_t base;
  [[nodiscard]] std::uint64_t at(std::uint64_t stream, std::uint64_t i) const {
    return mix(base + (stream << 40) + i);
  }
};

ConnectionPlan miss_connection(Inputs& inputs, std::size_t stream, std::size_t depth,
                               std::size_t supply, const FreshSeeds& seeds) {
  ConnectionPlan plan{.role = ConnectionPlan::Role::kMiss, .depth = depth};
  for (std::size_t i = 0; i < supply; ++i) {
    plan.order.push_back(inputs.requests.size());
    inputs.requests.push_back(
        simulate(kSimulateTargets[i % kSimulateTargets.size()], seeds.at(stream, i)));
  }
  return plan;
}

ConnectionPlan hit_connection(const std::vector<std::size_t>& keys, std::mt19937_64& rng) {
  ConnectionPlan plan{.role = ConnectionPlan::Role::kHit, .depth = 1, .order = keys};
  std::shuffle(plan.order.begin(), plan.order.end(), rng);
  return plan;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kServeHits, Workload::kServeMisses, Workload::kHitsUnderMisses,
                     Workload::kCompareCorpus}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kServeHits: return "serve_hits";
    case Workload::kServeMisses: return "serve_misses";
    case Workload::kHitsUnderMisses: return "hits_under_misses";
    case Workload::kCompareCorpus: return "compare_corpus";
  }
  return "?";
}

api::AnyRequest to_request(const RequestSpec& spec) {
  api::AnyRequest request;
  request.target = spec.target;
  switch (spec.kind) {
    case api::RequestKind::kSimulate: {
      api::SimulateRequest payload;
      payload.options.resolution = sim::Resolution::kRandom;
      payload.options.seed = spec.seed;
      request.payload = payload;
      break;
    }
    case api::RequestKind::kAnalyze: request.payload = api::AnalyzeRequest{}; break;
    case api::RequestKind::kExplore: request.payload = api::ExploreRequest{}; break;
    case api::RequestKind::kPareto: request.payload = api::ParetoRequest{}; break;
    case api::RequestKind::kCompare: {
      api::CompareRequest payload;
      payload.options.seed = spec.seed;
      request.payload = payload;
      break;
    }
  }
  return request;
}

std::string describe(const RequestSpec& spec) {
  std::string text = std::string{api::to_string(spec.kind)} + " \"" + spec.target + "\"";
  if (spec.kind == api::RequestKind::kSimulate || spec.kind == api::RequestKind::kCompare) {
    text += " seed " + std::to_string(spec.seed);
  }
  return text;
}

Inputs make_inputs(Workload workload, std::uint64_t seed, double seconds) {
  Inputs inputs{.workload = workload, .seed = seed};
  std::mt19937_64 rng{mix(seed ^ (static_cast<std::uint64_t>(workload) << 56))};
  const FreshSeeds seeds{rng()};
  const auto supply = [seconds](double per_second) {
    return static_cast<std::size_t>(per_second * std::max(seconds, 1.0));
  };

  switch (workload) {
    case Workload::kServeHits: {
      std::vector<std::string> sim_targets{kSimulateTargets.begin(), kSimulateTargets.end()};
      sim_targets.insert(sim_targets.end(), kBuiltinTargets.begin(), kBuiltinTargets.end());
      std::uint64_t counter = 0;
      for (const std::string& target : sim_targets) {
        for (std::size_t i = 0; i < kHitSeedsPerModel; ++i) {
          inputs.requests.push_back(simulate(target, seeds.at(0, counter++)));
        }
      }
      std::vector<std::string> all_models = api::builtin_names();
      const std::vector<std::string> corpus = corpus_names();
      all_models.insert(all_models.end(), corpus.begin(), corpus.end());
      for (const std::string& target : all_models) {
        inputs.requests.push_back(make_request(api::RequestKind::kAnalyze, target));
        inputs.requests.push_back(make_request(api::RequestKind::kExplore, target));
      }
      for (const char* target : kParetoTargets) {
        inputs.requests.push_back(make_request(api::RequestKind::kPareto, target));
      }
      for (std::size_t i = 0; i < inputs.requests.size(); ++i) inputs.warm.push_back(i);
      inputs.connections.push_back(hit_connection(inputs.warm, rng));
      inputs.connections.push_back(hit_connection(inputs.warm, rng));
      inputs.cache_capacity = 8192;
      break;
    }
    case Workload::kServeMisses: {
      for (std::size_t c = 0; c < 2; ++c) {
        inputs.connections.push_back(
            miss_connection(inputs, c, 1, supply(kMissSupplyPerSecond), seeds));
      }
      inputs.cache_capacity = 2048;
      break;
    }
    case Workload::kHitsUnderMisses: {
      for (std::size_t i = 0; i < kHotKeys; ++i) {
        inputs.warm.push_back(inputs.requests.size());
        inputs.requests.push_back(
            simulate(kSimulateTargets[i % kSimulateTargets.size()], seeds.at(7, i)));
      }
      for (std::size_t c = 0; c < 2; ++c) {
        inputs.connections.push_back(
            miss_connection(inputs, c, kMissDepth, supply(kMissSupplyPerSecond), seeds));
      }
      inputs.connections.push_back(hit_connection(inputs.warm, rng));
      // Large enough that a hot key, touched every few hundred milliseconds,
      // never reaches the LRU tail of its shard while misses insert.
      inputs.cache_capacity = 8192;
      break;
    }
    case Workload::kCompareCorpus: {
      // One model per default-corpus shape, its seed fresh from the run's
      // seed, so the server mints each on its first request. Every request
      // also carries a fresh explore seed: it misses the cache, while the
      // store stops growing once the shapes are minted, so the server's
      // memory does not scale with the replies it manages to send.
      std::vector<std::string> models;
      const std::uint64_t base = 1'000'000 + rng() % 1'000'000'000;
      for (const corpus::CorpusEntry& entry : corpus::default_corpus()) {
        corpus::CorpusSpec spec = entry.spec;
        spec.spec.seed = base + models.size();
        models.push_back(corpus::format_name(spec));
      }
      const std::size_t per_connection = supply(kCompareSupplyPerSecond);
      for (std::size_t c = 0; c < kCompareConnections; ++c) {
        ConnectionPlan plan{.role = ConnectionPlan::Role::kCompare, .depth = 1};
        for (std::size_t i = 0; i < per_connection; ++i) {
          plan.order.push_back(inputs.requests.size());
          inputs.requests.push_back({.kind = api::RequestKind::kCompare,
                                     .target = models[rng() % models.size()],
                                     .seed = seeds.at(c, i)});
        }
        inputs.connections.push_back(std::move(plan));
      }
      inputs.cache_capacity = 512;
      break;
    }
  }
  return inputs;
}

}  // namespace servebench
