// Multi-tenant isolation across the store / cache / session / service stack:
// tenant-scoped ids and salted content identity (same model name, distinct
// cache keys in both tiers), the per-tenant three-way unload contract, model
// quotas, per-tenant cache caps that evict only the owner's entries,
// deterministic lateness-driven overload shedding, and hello/token binding
// over the wire loop. The concurrent cases double as ThreadSanitizer targets
// for the cache's tenant ledger (CI runs this binary under
// -fsanitize=thread).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/wire.hpp"
#include "service/service.hpp"

namespace spivar {
namespace {

using api::ModelStore;
using api::StoreView;
using api::TenantContext;
using api::TenantQuota;
using api::UnloadStatus;

std::shared_ptr<StoreView> view_of(const std::shared_ptr<ModelStore>& store,
                                   const std::string& name, std::uint32_t tag,
                                   TenantQuota quota = {}) {
  return std::make_shared<StoreView>(store, TenantContext{.name = name, .tag = tag}, quota);
}

api::AnyRequest simulate_envelope(const std::string& target, std::uint64_t seed = 1) {
  api::SimulateRequest simulate;
  simulate.options.seed = seed;
  api::AnyRequest envelope;
  envelope.payload = simulate;
  envelope.target = target;
  return envelope;
}

/// ~250 ms of deterministic work (all-orders strategy comparison on a
/// corpus-minted model) — long enough that scheduler jitter cannot flip
/// any assertion built on "this is still running".
api::AnyRequest slow_compare_envelope() {
  api::CompareRequest compare;
  compare.all_orders = true;
  api::AnyRequest envelope;
  envelope.payload = compare;
  envelope.target = "sweep/i3v3c2-s1";
  return envelope;
}

// --- store views: namespaces over one store ----------------------------------

TEST(TenantViews, SameNameLoadsAreDistinctModelsWithDistinctIdentity) {
  auto store = std::make_shared<ModelStore>();
  auto alpha = view_of(store, "alpha", 1);
  auto beta = view_of(store, "beta", 2);

  const auto a = alpha->load_builtin("fig2");
  const auto b = beta->load_builtin("fig2");
  ASSERT_TRUE(a.ok() && b.ok());

  // Distinct ids (distinct cache generations) in the shared store...
  EXPECT_NE(a.value().id.value(), b.value().id.value());
  EXPECT_EQ(store->size(), 2u);
  // ...and distinct *content* identity: the tenant salt keeps two tenants'
  // byte-identical models from ever sharing a persistent-tier entry.
  EXPECT_NE(a.value().content_fingerprint, b.value().content_fingerprint);
  EXPECT_NE(a.value().content_fingerprint, 0u);
  EXPECT_NE(b.value().content_fingerprint, 0u);

  // The default tenant's identity is the unsalted pre-tenancy one.
  api::Session plain{store};
  const auto unsalted = plain.load_builtin("fig2");
  ASSERT_TRUE(unsalted.ok());
  EXPECT_NE(unsalted.value().content_fingerprint, a.value().content_fingerprint);
  EXPECT_NE(unsalted.value().content_fingerprint, b.value().content_fingerprint);
}

TEST(TenantViews, ContentSaltIsRestartStable) {
  // The salt derives from the tenant *name*, not the hello-order tag: the
  // same tenant re-hits its own disk entries across restarts regardless of
  // who connected first.
  auto first_store = std::make_shared<ModelStore>();
  const auto first = view_of(first_store, "alpha", 1)->load_builtin("fig2");
  auto second_store = std::make_shared<ModelStore>();
  const auto second = view_of(second_store, "alpha", 7)->load_builtin("fig2");
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().content_fingerprint, second.value().content_fingerprint);
}

TEST(TenantViews, UnloadAndInfoAreTenantScoped) {
  auto store = std::make_shared<ModelStore>();
  auto alpha = view_of(store, "alpha", 1);
  auto beta = view_of(store, "beta", 2);

  const auto a = alpha->load_builtin("fig1");
  ASSERT_TRUE(a.ok());

  // Another tenant cannot tombstone — or even observe — the model: a
  // guessed id fails exactly like one that never existed.
  EXPECT_EQ(beta->unload(a.value().id), UnloadStatus::kNeverLoaded);
  EXPECT_FALSE(beta->info(a.value().id).ok());
  EXPECT_TRUE(beta->models().empty());

  // The owner gets the usual three-way contract, and the store still holds
  // the model live until the owner unloads.
  ASSERT_TRUE(alpha->info(a.value().id).ok());
  EXPECT_EQ(alpha->unload(a.value().id), UnloadStatus::kUnloaded);
  EXPECT_EQ(alpha->unload(a.value().id), UnloadStatus::kAlreadyUnloaded);
  EXPECT_FALSE(alpha->info(a.value().id).ok());
}

TEST(TenantViews, ModelQuotaBoundsLiveModelsAndFreesOnUnload) {
  auto store = std::make_shared<ModelStore>();
  auto alpha = view_of(store, "alpha", 1, {.max_models = 1});

  const auto first = alpha->load_builtin("fig1");
  ASSERT_TRUE(first.ok());
  const auto second = alpha->load_builtin("fig2");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.diagnostics().has_code(api::diag::kQuotaExceeded));

  // Tombstones free their slot: quota bounds *live* models.
  EXPECT_EQ(alpha->unload(first.value().id), UnloadStatus::kUnloaded);
  EXPECT_TRUE(alpha->load_builtin("fig2").ok());
}

TEST(TenantViews, TypedEndpointsRefuseAnotherTenantsModel) {
  auto store = std::make_shared<ModelStore>();
  api::Session alpha{store};
  alpha.bind_tenant(view_of(store, "alpha", 1));
  api::Session beta{store};
  beta.bind_tenant(view_of(store, "beta", 2));

  const auto model = alpha.load_builtin("fig2");
  ASSERT_TRUE(model.ok());
  const api::ModelId id = model.value().id;
  EXPECT_TRUE(alpha.simulate({.model = id}).ok());

  // The typed surface checks ownership like the envelope: a foreign id
  // fails as an unknown model for every kind.
  EXPECT_TRUE(beta.simulate({.model = id}).diagnostics().has_code(api::diag::kUnknownModel));
  EXPECT_TRUE(beta.analyze({.model = id}).diagnostics().has_code(api::diag::kUnknownModel));
  EXPECT_TRUE(beta.explore({.model = id}).diagnostics().has_code(api::diag::kUnknownModel));
  EXPECT_TRUE(beta.pareto({.model = id}).diagnostics().has_code(api::diag::kUnknownModel));
  EXPECT_TRUE(beta.compare({.model = id}).diagnostics().has_code(api::diag::kUnknownModel));
}

// --- result cache: per-tenant accounting and caps ----------------------------

TEST(TenantCache, NoCrossTenantHitsAndPerTenantStats) {
  auto store = std::make_shared<ModelStore>();
  store->enable_cache({.capacity = 64});
  auto executor = api::make_executor(1);

  api::Session alpha{store, executor};
  alpha.bind_tenant(view_of(store, "alpha", 1));
  api::Session beta{store, executor};
  beta.bind_tenant(view_of(store, "beta", 2));

  // Identical request text from both tenants: each pays its own miss (no
  // cross-tenant serving), then hits its own entry.
  ASSERT_TRUE(alpha.call(simulate_envelope("fig2")).ok());
  ASSERT_TRUE(beta.call(simulate_envelope("fig2")).ok());
  ASSERT_TRUE(alpha.call(simulate_envelope("fig2")).ok());
  ASSERT_TRUE(beta.call(simulate_envelope("fig2")).ok());

  const auto stats = store->cache()->tenant_stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const api::TenantCacheStats& tenant : stats) {
    EXPECT_EQ(tenant.misses, 1u) << "tag " << tenant.tag;
    EXPECT_EQ(tenant.hits, 1u) << "tag " << tenant.tag;
    EXPECT_EQ(tenant.entries, 1u) << "tag " << tenant.tag;
  }
}

TEST(TenantCache, EntryCapEvictsOnlyTheOwnersEntries) {
  auto store = std::make_shared<ModelStore>();
  const auto cache = store->enable_cache({.capacity = 64});
  auto executor = api::make_executor(1);

  api::Session alpha{store, executor};
  alpha.bind_tenant(view_of(store, "alpha", 1));
  api::Session beta{store, executor};
  beta.bind_tenant(view_of(store, "beta", 2));
  cache->set_tenant_cap(1, 2);

  // Beta fills first; alpha then blows through its cap. An alpha insert at
  // the cap evicts one of *alpha's* entries — beta's stay resident.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(beta.call(simulate_envelope("fig2", seed)).ok());
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ASSERT_TRUE(alpha.call(simulate_envelope("fig2", seed)).ok());
  }

  const auto stats = cache->tenant_stats();
  ASSERT_EQ(stats.size(), 2u);
  const api::TenantCacheStats& a = stats[0];
  const api::TenantCacheStats& b = stats[1];
  ASSERT_EQ(a.tag, 1u);
  ASSERT_EQ(b.tag, 2u);
  EXPECT_LE(a.entries, 2u);
  EXPECT_GE(a.evictions, 4u);
  EXPECT_EQ(b.entries, 3u);
  EXPECT_EQ(b.evictions, 0u);

  // Beta's entries survived the storm: every repeat is a hit.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(beta.call(simulate_envelope("fig2", seed)).ok());
  }
  EXPECT_EQ(cache->tenant_stats()[1].hits, 3u);
}

TEST(TenantCache, ConcurrentTenantsKeepLedgerConsistent) {
  auto store = std::make_shared<ModelStore>();
  const auto cache = store->enable_cache({.capacity = 128});
  auto executor = api::make_executor(2);

  constexpr int kTenants = 3;
  constexpr std::uint64_t kSeeds = 12;
  std::vector<std::thread> threads;
  for (int t = 1; t <= kTenants; ++t) {
    threads.emplace_back([&store, &executor, &cache, t] {
      api::Session session{store, executor};
      session.bind_tenant(view_of(store, "tenant" + std::to_string(t),
                                  static_cast<std::uint32_t>(t)));
      cache->set_tenant_cap(static_cast<std::uint32_t>(t), 4);
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        ASSERT_TRUE(session.call(simulate_envelope("fig1", seed)).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // The ledger may lag the shards by a transient entry under contention,
  // but once the threads join it must agree: every tenant at or under its
  // cap, evictions accounting for the overflow.
  const auto stats = cache->tenant_stats();
  ASSERT_EQ(stats.size(), static_cast<std::size_t>(kTenants));
  for (const api::TenantCacheStats& tenant : stats) {
    EXPECT_LE(tenant.entries, 4u) << "tag " << tenant.tag;
    EXPECT_EQ(tenant.misses + tenant.hits, kSeeds) << "tag " << tenant.tag;
    EXPECT_GE(tenant.evictions, kSeeds - 4 - tenant.hits) << "tag " << tenant.tag;
  }
}

// --- admission control: deterministic overload shedding ----------------------

TEST(Admission, ProjectedMissRateAboveBoundShedsWithTypedFailure) {
  auto store = std::make_shared<ModelStore>();
  auto executor = api::make_executor(1);
  api::Session session{store, executor};
  const auto admission = std::make_shared<api::AdmissionController>(api::AdmissionConfig{
      .max_miss_rate = 0.5,
      .window = std::chrono::milliseconds{60'000},  // never expires mid-test
      .min_samples = 1,
      .retry_after = std::chrono::milliseconds{50},
  });
  session.bind_tenant(nullptr, admission);

  // Requests with an already-expired (0 ms) deadline: each completes
  // (deadlines are soft) but is recorded as a miss, driving the windowed
  // projection to 1.0 — deterministically above the 0.5 bound. Simulates,
  // not compares: a compare fans out into sub-tasks whose on-time
  // completions would dilute the miss rate; and call_batch, because the
  // batch path is what carries SubmitOptions into the executor's telemetry.
  std::vector<api::AnyRequest> warmup;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    api::AnyRequest hopeless = simulate_envelope("fig1", seed);
    hopeless.options.deadline = std::chrono::milliseconds{0};
    warmup.push_back(std::move(hopeless));
  }
  for (const auto& result : session.call_batch(std::move(warmup))) {
    ASSERT_TRUE(result.ok());
  }

  const auto shed = session.call(simulate_envelope("fig1"));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.diagnostics().has_code(api::diag::kOverload));
  const std::string rendered = api::render_diagnostics(shed.diagnostics());
  EXPECT_NE(rendered.find("retry-after-ms 50"), std::string::npos) << rendered;
  EXPECT_EQ(admission->admitted(), 1u);
  EXPECT_EQ(admission->rejected(), 1u);

  // call_batch and submit shed the same way, per slot, without touching the
  // executor.
  std::vector<api::AnyRequest> batch;
  batch.push_back(simulate_envelope("fig1"));
  batch.push_back(simulate_envelope("fig2"));
  for (const auto& result : session.call_batch(std::move(batch))) {
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.diagnostics().has_code(api::diag::kOverload));
  }
}

TEST(Admission, FreshWindowAdmitsAProbeSoDrainIsNoticed) {
  auto store = std::make_shared<ModelStore>();
  auto executor = api::make_executor(1);
  api::Session session{store, executor};
  // A stepped clock: the window expires when the test says so, never
  // because a slow (sanitized) build took longer than the window to run
  // the warmup.
  auto now = std::make_shared<std::chrono::steady_clock::time_point>();
  const auto admission = std::make_shared<api::AdmissionController>(
      api::AdmissionConfig{
          .max_miss_rate = 0.5,
          .window = std::chrono::milliseconds{50},
          .min_samples = 1,
      },
      [now] { return *now; });
  session.bind_tenant(nullptr, admission);

  std::vector<api::AnyRequest> warmup;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    api::AnyRequest hopeless = simulate_envelope("fig1", seed);
    hopeless.options.deadline = std::chrono::milliseconds{0};
    warmup.push_back(std::move(hopeless));
  }
  for (const auto& result : session.call_batch(std::move(warmup))) {
    ASSERT_TRUE(result.ok());
  }
  // Prove the misses register at all: inside the window the next request
  // sheds...
  EXPECT_FALSE(session.call(simulate_envelope("fig1")).ok());
  // ...but once the window rolls over, the next request is the fresh
  // window's probe and must be admitted — this is how the controller
  // notices the queue has drained.
  *now += std::chrono::milliseconds{60};
  EXPECT_TRUE(session.call(simulate_envelope("fig1")).ok());
}

// --- service layer: hello binding, tokens, per-tenant caps -------------------

std::string run_stream(service::Service& svc, const std::string& input,
                       service::StreamStats* stats = nullptr) {
  std::istringstream in{input};
  std::ostringstream out;
  const service::StreamStats result = svc.serve_stream(in, out);
  if (stats) *stats = result;
  return out.str();
}

TEST(ServiceTenancy, HelloBindsTenantAndTokensAreEnforced) {
  service::ServiceOptions options;
  options.jobs = 1;
  options.tenants.push_back({"alpha", {.token = "sekrit"}});
  service::Service svc{options};

  // Wrong token: an error reply, and the stream stays on the default
  // tenant (the following request still evaluates).
  {
    const std::string out = run_stream(
        svc, api::wire::hello_frame("alpha", "wrong") + api::wire::encode(simulate_envelope("fig1"), 1));
    std::istringstream replies{out};
    const auto first = api::wire::read_frame(replies);
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(api::wire::decode_info(*first).ok()) << *first;
    const auto second = api::wire::read_frame(replies);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(api::wire::decode_response(*second).ok()) << *second;
  }

  // Right token: an info reply naming the tenant, then tenant-scoped
  // evaluation.
  {
    const std::string out = run_stream(
        svc, api::wire::hello_frame("alpha", "sekrit") + api::wire::encode(simulate_envelope("fig1"), 1));
    std::istringstream replies{out};
    const auto first = api::wire::read_frame(replies);
    ASSERT_TRUE(first.has_value());
    const auto info = api::wire::decode_info(*first);
    ASSERT_TRUE(info.ok()) << *first;
    EXPECT_NE(info.value().find("alpha"), std::string::npos);
  }

  // Unknown tenants are admitted ad hoc; "default" maps to the shared
  // pre-tenancy session.
  for (const std::string name : {"adhoc", "default"}) {
    const std::string out = run_stream(svc, api::wire::hello_frame(name));
    std::istringstream replies{out};
    const auto first = api::wire::read_frame(replies);
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(api::wire::decode_info(*first).ok()) << *first;
  }
}

TEST(ServiceTenancy, TenantsSeeOnlyTheirOwnModels) {
  service::Service svc{{.jobs = 1}};

  // Alpha mints a model; beta's `models` control must not list it, and the
  // default (no-hello) session must not either — tenant loads are invisible
  // outside their namespace.
  run_stream(svc, api::wire::hello_frame("alpha") +
                      api::wire::control_frame("load", {"fig2"}) +
                      api::wire::control_frame("models", {}));
  const std::string beta_out =
      run_stream(svc, api::wire::hello_frame("beta") + api::wire::control_frame("models", {}));
  const std::string default_out = run_stream(svc, api::wire::control_frame("models", {}));
  for (const std::string& out : {beta_out, default_out}) {
    std::istringstream replies{out};
    std::string last;
    while (const auto frame = api::wire::read_frame(replies)) last = *frame;
    const auto info = api::wire::decode_info(last);
    ASSERT_TRUE(info.ok()) << last;
    EXPECT_NE(info.value().find("no models loaded"), std::string::npos) << info.value();
  }
}

TEST(ServiceTenancy, TenantInflightCapRejectsWithTypedOverload) {
  service::ServiceOptions options;
  options.jobs = 2;
  options.tenants.push_back({"alpha", {.max_inflight = 1}});
  service::Service svc{options};

  // Frame 1 (slow, ~250 ms) occupies alpha's single in-flight slot; frame 2
  // arrives while it is still evaluating and must be *rejected* — not
  // queued — with a typed api-overload reply carrying a retry hint.
  service::StreamStats stats;
  const std::string out = run_stream(
      svc,
      api::wire::hello_frame("alpha") + api::wire::encode(slow_compare_envelope(), 1) +
          api::wire::encode(simulate_envelope("fig1"), 2),
      &stats);
  EXPECT_EQ(stats.shed, 1u);

  std::istringstream replies{out};
  ASSERT_TRUE(api::wire::read_frame(replies).has_value());  // hello info
  bool saw_shed = false;
  bool saw_slow = false;
  while (const auto frame = api::wire::read_frame(replies)) {
    const auto id = api::wire::response_frame_id(*frame);
    ASSERT_TRUE(id.has_value()) << *frame;
    const auto result = api::wire::decode_response(*frame);
    if (*id == 2) {
      saw_shed = true;
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(result.diagnostics().has_code(api::diag::kOverload));
      EXPECT_NE(api::render_diagnostics(result.diagnostics()).find("retry-after-ms"),
                std::string::npos);
    } else {
      saw_slow = true;
      EXPECT_TRUE(result.ok()) << *frame;
    }
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_TRUE(saw_slow);
}

TEST(ServiceTenancy, NoHelloStreamMatchesPreTenancyBehavior) {
  // The same request stream against a tenant-configured server and a plain
  // one must be byte-identical when the client never says hello — legacy
  // clients cannot tell the feature exists.
  const std::string input = api::wire::encode(simulate_envelope("fig1"), 1) +
                            api::wire::control_frame("models", {}) +
                            api::wire::encode(simulate_envelope("fig2", 3), 2);
  service::ServiceOptions with_tenants;
  with_tenants.jobs = 1;
  with_tenants.tenants.push_back({"alpha", {.max_models = 1, .token = "t"}});
  with_tenants.overload_miss_rate = 0.9;
  service::Service tenanted{with_tenants};
  service::Service plain{{.jobs = 1}};
  EXPECT_EQ(run_stream(tenanted, input), run_stream(plain, input));
}

}  // namespace
}  // namespace spivar
