// Output checks, run after the measured phase. Each takes raw or decoded
// replies and appends what it finds to a CheckReport, so the benchmark's own
// tests can feed it corrupted replies and see it fail.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "api/wire.hpp"
#include "bench.hpp"
#include "corpus/equivalence.hpp"
#include "models/synthetic.hpp"

namespace servebench {

std::optional<api::AnyResponse> check_reply(std::string_view raw, std::uint64_t expected_id,
                                            const api::Result<api::AnyResponse>& reference,
                                            const std::string& label, CheckReport& report) {
  api::Result<api::AnyResponse> served = api::wire::decode_response(raw);
  if (!served.ok()) {
    report.fail(label + ": reply is an error or does not decode: " +
                std::string{raw.substr(0, raw.find('\n'))});
    return std::nullopt;
  }
  if (api::wire::response_frame_id(raw) != expected_id) {
    report.fail(label + ": reply does not echo frame id " + std::to_string(expected_id));
  } else if (!reference.ok()) {
    report.fail(label + ": the in-process reference evaluation failed");
  } else if (const std::string expected = api::wire::encode(reference, expected_id);
             raw != expected) {
    const auto [served_at, expected_at] =
        std::mismatch(raw.begin(), raw.end(), expected.begin(), expected.end());
    const auto line_of = [](std::string_view text, std::size_t at) {
      const std::size_t begin = text.rfind('\n', at == 0 ? 0 : at - 1);
      const std::size_t from = begin == std::string_view::npos ? 0 : begin + 1;
      return std::string{text.substr(from, text.find('\n', from) - from)};
    };
    report.fail(label + ": served reply differs from the in-process reference: served '" +
                line_of(raw, static_cast<std::size_t>(served_at - raw.begin())) +
                "', expected '" +
                line_of(expected, static_cast<std::size_t>(expected_at - expected.begin())) + "'");
  }
  return std::move(served).value();
}

void check_simulate(const api::SimulateResponse& response, const variant::VariantModel& model,
                    const std::string& label, CheckReport& report) {
  const sim::SimResult& result = response.result;
  std::int64_t process_sum = 0;
  std::int64_t mode_sum = 0;
  for (const sim::ProcessStats& stats : result.processes) {
    process_sum += stats.firings;
    for (const std::int64_t firings : stats.mode_firings) mode_sum += firings;
  }
  if (result.total_firings != process_sum || process_sum != mode_sum) {
    report.fail(label + ": total-firings " + std::to_string(result.total_firings) +
                ", process firings " + std::to_string(process_sum) + ", mode firings " +
                std::to_string(mode_sum) + " disagree");
  }
  const spi::Graph& graph = model.graph();
  const std::vector<support::ChannelId> channels = graph.channel_ids();
  if (channels.size() != result.channels.size()) {
    report.fail(label + ": reply carries " + std::to_string(result.channels.size()) +
                " channels, the model has " + std::to_string(channels.size()));
    return;
  }
  for (const support::ChannelId id : channels) {
    const spi::Channel& channel = graph.channel(id);
    if (channel.kind != spi::ChannelKind::kQueue) continue;
    const sim::ChannelStats& stats = result.channel(id);
    const std::int64_t balance =
        channel.initial_tokens + stats.produced - stats.consumed - stats.dropped;
    if (balance != stats.occupancy || stats.occupancy > stats.max_occupancy) {
      report.fail(label + ": channel '" + channel.name + "' token balance " +
                  std::to_string(balance) + ", occupancy " + std::to_string(stats.occupancy) +
                  ", max occupancy " + std::to_string(stats.max_occupancy));
    }
  }
}

void check_compare(const api::CompareResponse& response, const variant::VariantModel& model,
                   const synth::ImplLibrary& library, const std::string& label,
                   CheckReport& report) {
  std::vector<corpus::StrategyResult> results;
  double independent = 0.0;
  const api::CompareResponse::Row* superposition = nullptr;
  for (const api::CompareResponse::Row& row : response.rows) {
    results.push_back({row.strategy, row.scope, row.outcome});
    if (row.strategy == "independent") independent += row.outcome.cost.total;
    if (row.strategy == "superposition") superposition = &row;
  }
  if (results.size() < 5 || superposition == nullptr) {
    report.fail(label + ": compare reply lacks strategy rows");
    return;
  }
  const corpus::EquivalenceReport equivalence =
      corpus::check_equivalence(response.model, model, library, results);
  for (const corpus::Mismatch& mismatch : equivalence.mismatches) {
    report.fail(label + ": " + mismatch.strategy + " " + mismatch.binding + " " + mismatch.detail);
  }
  if (superposition->outcome.cost.total > independent + 1e-9) {
    report.fail(label + ": superposition cost " +
                std::to_string(superposition->outcome.cost.total) +
                " exceeds the independent cost " + std::to_string(independent));
  }
}

void check_table1(const api::CompareResponse& response, CheckReport& report) {
  std::vector<double> independent;
  double superposition = -1.0;
  double with_variants = -1.0;
  for (const api::CompareResponse::Row& row : response.rows) {
    if (row.strategy == "independent") independent.push_back(row.outcome.cost.total);
    if (row.strategy == "superposition") superposition = row.outcome.cost.total;
    if (row.strategy == "with-variants") with_variants = row.outcome.cost.total;
  }
  const bool matches = independent == std::vector<double>{34, 38} && superposition == 57 &&
                       with_variants == 41;
  if (!matches) {
    std::ostringstream text;
    text << "compare fig2 does not reproduce Table 1 (34, 38, 57, 41): independent";
    for (const double cost : independent) text << ' ' << cost;
    text << ", superposition " << superposition << ", with-variants " << with_variants;
    report.fail(text.str());
  }
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_cache_stats(
    std::string_view info_frame) {
  const api::Result<std::string> text = api::wire::decode_info(info_frame);
  if (!text.ok()) return std::nullopt;
  // hits  misses  hit rate ...
  // ------------------------
  // 1     1       50.0% ...
  std::istringstream lines{text.value()};
  std::string header;
  std::string rule;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  if (!std::getline(lines, header) || header.rfind("hits", 0) != 0 ||
      !std::getline(lines, rule) || !(lines >> hits >> misses)) {
    return std::nullopt;
  }
  return std::pair{hits, misses};
}

const ModelCase& ModelCases::get(const std::string& target) {
  if (const auto it = cases_.find(target); it != cases_.end()) return it->second;
  const api::BuiltinModel* builtin = api::find_builtin(target);
  if (builtin == nullptr) throw std::runtime_error{"unknown model '" + target + "'"};
  variant::VariantModel model = builtin->make({});
  // Without a curated library a session derives a synthetic one per process.
  synth::ImplLibrary library =
      builtin->library ? builtin->library(model) : models::make_synthetic_library(model);
  const synth::ProblemOptions problem =
      builtin->library ? builtin->problem
                       : synth::ProblemOptions{.granularity = synth::ElementGranularity::kProcess};
  return cases_.emplace(target, ModelCase{std::move(model), std::move(library), problem})
      .first->second;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace servebench
