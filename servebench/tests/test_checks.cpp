// Each output check of the benchmark passes on a served reply and fails on a
// corrupted one.
#include <gtest/gtest.h>

#include "api/wire.hpp"
#include "bench.hpp"

namespace servebench {
namespace {

api::Result<api::AnyResponse> evaluate(const RequestSpec& spec) {
  const api::Session session;
  return session.call(to_request(spec));
}

const RequestSpec kSimulateFig1{.kind = api::RequestKind::kSimulate, .target = "fig1", .seed = 5};
const RequestSpec kCompareSweep{.kind = api::RequestKind::kCompare, .target = "sweep/i2c2-s42"};
const RequestSpec kCompareFig2{.kind = api::RequestKind::kCompare, .target = "fig2"};

TEST(CheckReply, AcceptsTheReferenceBytes) {
  const auto reference = evaluate(kSimulateFig1);
  CheckReport report;
  const auto decoded = check_reply(api::wire::encode(reference, 7), 7, reference, "r", report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(decoded.has_value());
}

TEST(CheckReply, RejectsAChangedBodyByte) {
  const auto reference = evaluate(kSimulateFig1);
  std::string raw = api::wire::encode(reference, 7);
  const std::size_t at = raw.find("total-firings 800");
  ASSERT_NE(at, std::string::npos);
  raw[at + std::string{"total-firings "}.size()] = '9';
  CheckReport report;
  (void)check_reply(raw, 7, reference, "r", report);
  EXPECT_FALSE(report.ok());
}

TEST(CheckReply, RejectsAWrongFrameIdAndAnErrorReply) {
  const auto reference = evaluate(kSimulateFig1);
  CheckReport wrong_id;
  (void)check_reply(api::wire::encode(reference, 8), 7, reference, "r", wrong_id);
  EXPECT_FALSE(wrong_id.ok());

  const auto failure = api::Result<api::AnyResponse>::failure("api-model-error", "broken");
  CheckReport error_reply;
  EXPECT_FALSE(check_reply(api::wire::encode(failure, 7), 7, reference, "r", error_reply));
  EXPECT_FALSE(error_reply.ok());
}

TEST(CheckSimulate, AcceptsARealRunAndRejectsBrokenCounts) {
  ModelCases cases;
  const auto result = evaluate(kSimulateFig1);
  const auto& response = std::get<api::SimulateResponse>(result.value());
  const variant::VariantModel& model = cases.get("fig1").model;

  CheckReport clean;
  check_simulate(response, model, "s", clean);
  EXPECT_TRUE(clean.ok()) << clean.problems.front();

  api::SimulateResponse firings = response;
  firings.result.total_firings += 1;
  CheckReport total;
  check_simulate(firings, model, "s", total);
  EXPECT_FALSE(total.ok());

  api::SimulateResponse modes = response;
  modes.result.processes.back().mode_firings.front() += 1;
  CheckReport per_mode;
  check_simulate(modes, model, "s", per_mode);
  EXPECT_FALSE(per_mode.ok());

  api::SimulateResponse tokens = response;
  tokens.result.channels.front().produced += 1;
  CheckReport balance;
  check_simulate(tokens, model, "s", balance);
  EXPECT_FALSE(balance.ok());

  api::SimulateResponse peak = response;
  peak.result.channels.back().max_occupancy = peak.result.channels.back().occupancy - 1;
  CheckReport occupancy;
  check_simulate(peak, model, "s", occupancy);
  EXPECT_FALSE(occupancy.ok());
}

TEST(CheckCompare, AcceptsARealCompareAndRejectsAWrongCost) {
  ModelCases cases;
  const ModelCase& model = cases.get(kCompareSweep.target);
  const auto result = evaluate(kCompareSweep);
  const auto& response = std::get<api::CompareResponse>(result.value());

  CheckReport clean;
  check_compare(response, model.model, model.library, "c", clean);
  EXPECT_TRUE(clean.ok()) << clean.problems.front();

  api::CompareResponse cost = response;
  for (api::CompareResponse::Row& row : cost.rows) {
    if (row.strategy == "with-variants") row.outcome.cost.total += 1;
  }
  CheckReport rederived;
  check_compare(cost, model.model, model.library, "c", rederived);
  EXPECT_FALSE(rederived.ok());
}

TEST(CheckCompare, RejectsSuperpositionAboveIndependent) {
  ModelCases cases;
  const ModelCase& model = cases.get(kCompareSweep.target);
  const auto result = evaluate(kCompareSweep);
  api::CompareResponse response = std::get<api::CompareResponse>(result.value());
  for (api::CompareResponse::Row& row : response.rows) {
    if (row.strategy == "independent") row.outcome.cost.total = 0;
  }
  CheckReport report;
  check_compare(response, model.model, model.library, "c", report);
  EXPECT_FALSE(report.ok());
}

TEST(CheckTable1, AcceptsFig2AndRejectsAnyOtherTotal) {
  const auto result = evaluate(kCompareFig2);
  const auto& response = std::get<api::CompareResponse>(result.value());
  CheckReport clean;
  check_table1(response, clean);
  EXPECT_TRUE(clean.ok());

  api::CompareResponse changed = response;
  for (api::CompareResponse::Row& row : changed.rows) {
    if (row.strategy == "with-variants") row.outcome.cost.total = 40;
  }
  CheckReport report;
  check_table1(changed, report);
  EXPECT_FALSE(report.ok());
}

TEST(ParseCacheStats, ReadsHitsAndMisses) {
  const std::string frame = api::wire::encode_info(
      "hits  misses  hit rate  evictions\n---------------\n12    3       80.0%     0\n");
  const auto stats = parse_cache_stats(frame);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->first, 12u);
  EXPECT_EQ(stats->second, 3u);
  EXPECT_FALSE(parse_cache_stats("info v1\ntext \"pong\"\nend\n").has_value());
}

TEST(Inputs, SameSeedSameRequests) {
  const Inputs a = make_inputs(Workload::kServeMisses, 3, 1);
  const Inputs b = make_inputs(Workload::kServeMisses, 3, 1);
  const Inputs c = make_inputs(Workload::kServeMisses, 4, 1);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  EXPECT_EQ(describe(a.requests[17]), describe(b.requests[17]));
  EXPECT_NE(describe(a.requests[17]), describe(c.requests[17]));
}

}  // namespace
}  // namespace servebench
