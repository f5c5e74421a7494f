// Streaming shard engine: a bounded live-user arena with park/revive must
// (a) never exceed its occupancy limit, (b) produce a report byte-identical
// to the materialise-everything engine, and (c) stay byte-identical across
// thread counts. TSan-labeled: the incremental shard merge and the live
// progress counters ride worker threads.
//
// The default fleet is sized for sanitizer budgets (single-digit seconds
// in a Release build). Set CATALYST_STREAMING_FULL=1 to run the full
// 50 000-user / 512-arena configuration from the issue checklist — the
// same properties at the scale tools/run_checks.sh gates with fleetsim.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "fleet/runner.h"

namespace catalyst::fleet {
namespace {

bool full_scale() {
  const char* env = std::getenv("CATALYST_STREAMING_FULL");
  return env != nullptr && env[0] == '1';
}

std::uint64_t fleet_users() { return full_scale() ? 50000 : 1200; }
std::uint64_t arena_limit() { return full_scale() ? 512 : 96; }

FleetParams fleet_params(std::uint64_t max_live_users) {
  FleetParams params;
  params.user_model.master_seed = 31;
  params.user_model.site_catalog_size = 3;
  params.user_model.max_visits = 3;
  params.user_model.mean_visit_gap = hours(48);
  params.strategy = core::StrategyKind::Catalyst;
  params.baseline = core::StrategyKind::Catalyst;  // single arm: cost
  params.max_live_users = max_live_users;
  return params;
}

TEST(FleetStreamingTest, ArenaOccupancyNeverExceedsLimit) {
  FleetRunner runner(fleet_params(arena_limit()), fleet_users(), 2);
  const FleetReport report = runner.run();
  ASSERT_GT(report.parking.parks, 0u)
      << "fleet too small to exercise parking";
  EXPECT_EQ(report.parking.parks, report.parking.revives)
      << "every parked user must be revived (none have visits left over)";
  EXPECT_EQ(report.parking.corrupt_revivals, 0u);
  EXPECT_GT(report.parking.live_users_peak, 0u);
  EXPECT_LE(report.parking.live_users_peak, arena_limit());
  EXPECT_GT(report.parking.parked_bytes_peak, 0u);
}

/// Catalyst against the baseline arm with faults, the byte oracle and the
/// phase breakdown on: exercises the baseline and PLT-reduction tallies
/// that a single-arm fleet never reaches.
FleetParams two_arm_params(std::uint64_t max_live_users) {
  FleetParams params = fleet_params(max_live_users);
  params.baseline = core::StrategyKind::Baseline;
  params.faults.loss_rate = 0.01;
  params.faults.stall_rate = 0.01 / 4.0;
  params.options.byte_oracle = true;
  params.breakdown = true;
  return params;
}

TEST(FleetStreamingTest, ReportMatchesMaterialiseEverythingEngine) {
  struct EngineCase {
    const char* name;
    FleetParams (*make)(std::uint64_t);
    std::uint64_t users;
    std::uint64_t arena;
  };
  // The two-arm fleet costs several times more per user (a second arm,
  // the oracle audit, more network fetches), so it runs an eighth of the
  // users through an eighth of the arena.
  const EngineCase cases[] = {
      {"single arm", fleet_params, fleet_users(), arena_limit()},
      {"two arms", two_arm_params, fleet_users() / 8, arena_limit() / 8},
  };
  for (const EngineCase& c : cases) {
    SCOPED_TRACE(c.name);
    FleetRunner legacy(c.make(0), c.users, 2);
    const FleetReport legacy_report = legacy.run();

    FleetRunner streaming(c.make(c.arena), c.users, 2);
    const FleetReport streaming_report = streaming.run();

    EXPECT_GT(streaming_report.parking.parks, 0u)
        << "fleet too small to exercise parking";
    EXPECT_EQ(streaming_report.serialize(), legacy_report.serialize());
  }
}

TEST(FleetStreamingTest, ReportIsThreadCountInvariant) {
  FleetRunner t1(fleet_params(arena_limit()), fleet_users(), 1);
  const std::string one = t1.run().serialize();
  FleetRunner t4(fleet_params(arena_limit()), fleet_users(), 4);
  const std::string four = t4.run().serialize();
  EXPECT_EQ(one, four);
}

TEST(FleetStreamingTest, ArenaSizeDoesNotChangeReportBytes) {
  // The arena limit is pure scheduling: any limit ≥ 1 must yield the
  // same bytes (parking cadence changes, results do not). Tiny fleet —
  // a 1-slot arena parks on every user interleave.
  FleetParams params = fleet_params(1);
  FleetRunner tight(params, 64, 2);
  const std::string one_slot = tight.run().serialize();
  params.max_live_users = 32;
  FleetRunner roomy(params, 64, 2);
  EXPECT_EQ(roomy.run().serialize(), one_slot);
}

TEST(FleetStreamingTest, IncompatibleConfigFallsBackToLegacyEngine) {
  // fleetsim rejects these combinations at the CLI, but a library caller
  // can hand Shard any FleetParams: strategies with cross-visit server
  // state must fall back to the legacy engine (no parking) instead of
  // streaming with state that park/revive cannot snapshot.
  FleetParams params = fleet_params(0);
  params.strategy = core::StrategyKind::CatalystLearned;
  params.baseline = core::StrategyKind::Baseline;
  ASSERT_FALSE(params.streaming_compatible());
  FleetRunner legacy(params, 64, 2);
  const std::string legacy_bytes = legacy.run().serialize();

  params.max_live_users = 8;
  FleetRunner guarded(params, 64, 2);
  const FleetReport report = guarded.run();
  EXPECT_EQ(report.parking.parks, 0u)
      << "incompatible config must not stream";
  EXPECT_EQ(report.serialize(), legacy_bytes);
}

}  // namespace
}  // namespace catalyst::fleet
