// ParkedUser codec round-trips: 1k seeded random user states snapshot to
// deterministic bytes, restore(snapshot(s)) replays the next visit
// behaviourally identically (same hits / misses / conditional GETs, same
// timings), and corrupted blobs — truncated, bit-flipped, wrong-version —
// fail closed into a cold revive without touching the testbed. The states
// span single- and two-arm blobs, parks after the cold load and after
// later visits, and users audited by the byte oracle.
#include "fleet/parked.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "check/replay.h"
#include "core/experiment.h"
#include "core/testbed.h"
#include "fleet/user_model.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/sitegen.h"

namespace catalyst::fleet {
namespace {

constexpr std::uint64_t kStates = 1000;

UserModelParams model_params() {
  UserModelParams params;
  params.master_seed = 0xfeed;
  params.site_catalog_size = 12;
  params.max_visits = 4;
  // Exercise content churn (revalidations / 304s on revisit).
  params.clone_static_snapshot = false;
  return params;
}

/// Site catalog shared across cases; every 4th state uses a catalog with
/// an error model so negative-cache entries land in the parked blob.
std::shared_ptr<server::Site> site_for(int site_index, bool errors) {
  static std::map<std::pair<int, bool>, std::shared_ptr<server::Site>> memo;
  auto& slot = memo[{site_index, errors}];
  if (!slot) {
    workload::SitegenParams sp;
    sp.seed = model_params().sitegen_seed;
    sp.site_index = site_index;
    sp.clone_static_snapshot = false;
    if (errors) {
      sp.errors.dead_link_fraction = 0.08;
      sp.errors.gone_link_fraction = 0.04;
      sp.errors.soft404_fraction = 0.04;
    }
    slot = workload::generate_site(sp);
  }
  return slot;
}

struct StateCase {
  UserProfile profile;
  std::shared_ptr<server::Site> site;
  core::StrategyKind kind = core::StrategyKind::Catalyst;
  /// Comparison arm parked into the same blob (two-arm fleets), if any.
  std::optional<core::StrategyKind> base_kind;
  netsim::FaultSpec faults;
  bool oracle = false;
  std::size_t parked_after = 1;  // visits replayed before the park
  TimePoint probe;  // the next-visit time the behavioural probe replays
};

StateCase case_for(std::uint64_t i) {
  StateCase c;
  c.profile = make_user_profile(model_params(), i);
  c.site = site_for(c.profile.site_index, i % 4 == 0);
  // Mix of arms: Catalyst parks SW + map + negative state, Baseline only
  // the HTTP cache — both shapes of blob must round-trip.
  c.kind = i % 3 == 2 ? core::StrategyKind::Baseline
                      : core::StrategyKind::Catalyst;
  if (i % 5 == 1) {
    // Two-arm blob: the other strategy rides along as the baseline arm,
    // so a Catalyst base arm (with its origin scan memo) is covered too.
    c.base_kind = c.kind == core::StrategyKind::Catalyst
                      ? core::StrategyKind::Baseline
                      : core::StrategyKind::Catalyst;
  }
  if (i % 7 == 0) {
    // A fault slice: parked blobs must carry the decision-stream ordinal
    // so revived users resume the same fault schedule.
    c.faults.loss_rate = 0.05;
    c.faults.server_error_rate = 0.05;
    c.faults.stream = i;
  }
  c.oracle = i % 6 == 4;
  const auto& visits = c.profile.visits;
  // Park after the second-to-last visit when the timeline allows it, so
  // warm state (revalidated entries, replaced maps) parks too.
  if (i % 4 == 3 && visits.size() > 2) c.parked_after = visits.size() - 1;
  c.probe = visits.size() > c.parked_after ? visits[c.parked_after]
                                           : visits.back() + hours(6);
  return c;
}

core::Testbed make_case_testbed(const StateCase& c, core::StrategyKind kind) {
  core::StrategyOptions options;
  options.mobile_client = c.profile.mobile_client;
  options.byte_oracle = c.oracle;
  netsim::NetworkConditions conditions = conditions_for(c.profile.tier);
  conditions.faults = c.faults;
  return core::make_testbed(c.site, conditions, kind, options);
}

core::Testbed make_case_testbed(const StateCase& c) {
  return make_case_testbed(c, c.kind);
}

/// Replays the visits before the park point and drains stragglers;
/// returns the drained event count the blob carries.
std::uint64_t run_to_park(const StateCase& c, core::Testbed& tb) {
  for (std::size_t v = 0; v < c.parked_after; ++v) {
    core::run_visit(tb, c.profile.visits[v]);
  }
  return tb.loop->run();
}

/// Builds the single-arm parked state (the treatment arm only).
std::string park_state(const StateCase& c, core::Testbed& tb,
                       std::uint64_t& stragglers) {
  stragglers = run_to_park(c, tb);
  return park_user(c.profile.user_id, tb, stragglers, nullptr, 0);
}

/// Probe fields that must survive a park/revive round trip: cache-path
/// counts (hits / misses / conditional GETs), bytes, timing, and the full
/// replay trace line (which captures per-fetch sources and timestamps).
void expect_same_visit(const client::PageLoadResult& a,
                       const client::PageLoadResult& b, std::uint64_t uid) {
  EXPECT_EQ(a.from_cache, b.from_cache);
  EXPECT_EQ(a.from_network, b.from_network);
  EXPECT_EQ(a.not_modified, b.not_modified);
  EXPECT_EQ(a.from_sw_cache, b.from_sw_cache);
  EXPECT_EQ(a.resources_total, b.resources_total);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
  EXPECT_EQ(a.rtts, b.rtts);
  EXPECT_EQ(a.negative_hits, b.negative_hits);
  EXPECT_EQ(a.oracle_checked, b.oracle_checked);
  EXPECT_EQ(a.oracle_allowed_stale, b.oracle_allowed_stale);
  EXPECT_EQ(a.oracle_violations, b.oracle_violations);
  EXPECT_EQ(a.plt().count(), b.plt().count());
  EXPECT_EQ(check::trace_to_jsonl(a, uid, 1), check::trace_to_jsonl(b, uid, 1));
}

TEST(FleetParkedStateTest, ThousandStatesRoundTripExactly) {
  for (std::uint64_t i = 0; i < kStates; ++i) {
    const StateCase c = case_for(i);
    const std::uint64_t uid = c.profile.user_id;
    core::Testbed live = make_case_testbed(c);
    std::optional<core::Testbed> live_base;
    if (c.base_kind) live_base.emplace(make_case_testbed(c, *c.base_kind));
    const std::uint64_t stragglers = run_to_park(c, live);
    const std::uint64_t base_stragglers =
        live_base ? run_to_park(c, *live_base) : 0;
    core::Testbed* live_base_ptr = live_base ? &*live_base : nullptr;
    const std::string blob =
        park_user(uid, live, stragglers, live_base_ptr, base_stragglers);
    ASSERT_FALSE(blob.empty()) << "state " << i;

    // Revive into fresh testbeds; parking them again must reproduce the
    // exact bytes (park ∘ revive is the identity on blobs).
    core::Testbed revived = make_case_testbed(c);
    std::optional<core::Testbed> revived_base;
    if (c.base_kind) revived_base.emplace(make_case_testbed(c, *c.base_kind));
    core::Testbed* revived_base_ptr = revived_base ? &*revived_base : nullptr;
    const ReviveResult rv = revive_user(blob, uid, revived, revived_base_ptr);
    ASSERT_EQ(rv.status, ReviveStatus::Ok) << "state " << i;
    EXPECT_EQ(rv.treat_stragglers, stragglers) << "state " << i;
    EXPECT_EQ(rv.base_stragglers, base_stragglers) << "state " << i;
    const std::string reblob =
        park_user(uid, revived, rv.treat_stragglers, revived_base_ptr,
                  rv.base_stragglers);
    ASSERT_EQ(reblob, blob) << "state " << i;

    // Behavioural identity: the revived user replays its next visit
    // exactly like the never-parked one, on every parked arm.
    expect_same_visit(core::run_visit(live, c.probe),
                      core::run_visit(revived, c.probe), uid);
    if (live_base) {
      expect_same_visit(core::run_visit(*live_base, c.probe),
                        core::run_visit(*revived_base, c.probe), uid);
    }
    if (::testing::Test::HasFailure()) FAIL() << "diverged at state " << i;
  }
}

TEST(FleetParkedStateTest, SnapshotBytesAreDeterministic) {
  // Rebuilding the same state from scratch yields byte-identical blobs —
  // parked bytes are a pure function of (seed, user id, visit count).
  for (std::uint64_t i = 0; i < kStates; i += 8) {
    const StateCase c = case_for(i);
    core::Testbed a = make_case_testbed(c);
    core::Testbed b = make_case_testbed(c);
    std::uint64_t sa = 0;
    std::uint64_t sb = 0;
    ASSERT_EQ(park_state(c, a, sa), park_state(c, b, sb)) << "state " << i;
    EXPECT_EQ(sa, sb);
  }
}

TEST(FleetParkedStateTest, TruncatedBlobsFailClosed) {
  // The trailing checksum covers every byte, so any truncation must come
  // back Corrupt without touching the testbed. Every length through the
  // structural prefix (magic/version/flags/user-id/table setup), the
  // boundary lengths around the checksum tail, and sampled interior
  // lengths; checksumming is O(len), so an all-lengths sweep over multi-
  // hundred-KiB blobs would be quadratic for no extra coverage.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const StateCase c = case_for(i);
    core::Testbed tb = make_case_testbed(c);
    std::uint64_t stragglers = 0;
    const std::string blob = park_state(c, tb, stragglers);
    Rng rng = Rng(0x7240c4).fork(i);
    std::vector<std::size_t> lengths;
    const std::size_t prefix = i < 4 ? 256 : 24;
    for (std::size_t k = 0; k < prefix && k < blob.size(); ++k) {
      lengths.push_back(k);
    }
    for (std::size_t back = 1; back <= 9; ++back) {
      if (blob.size() >= back) lengths.push_back(blob.size() - back);
    }
    for (int k = 0; k < 32; ++k) {
      lengths.push_back(
          static_cast<std::size_t>(rng.next_u64() % blob.size()));
    }
    // One victim testbed for every truncation of this blob: a corrupt
    // revive must leave it untouched, so reuse doubles as a detector for
    // partially-applied state compounding across attempts.
    core::Testbed victim = make_case_testbed(c);
    for (const std::size_t len : lengths) {
      const ReviveResult rv = revive_user(blob.substr(0, len),
                                          c.profile.user_id, victim, nullptr);
      ASSERT_EQ(rv.status, ReviveStatus::Corrupt)
          << "state " << i << " truncated to " << len;
    }
  }
}

TEST(FleetParkedStateTest, BitFlippedBlobsFailClosed) {
  // FNV-1a threads every input bit through xor-then-odd-multiply, both
  // injective, so any single-bit flip is guaranteed to shift the
  // checksum; flips inside the checksum tail mismatch trivially.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const StateCase c = case_for(i);
    core::Testbed tb = make_case_testbed(c);
    std::uint64_t stragglers = 0;
    const std::string blob = park_state(c, tb, stragglers);
    Rng rng = Rng(0xb17f11b).fork(i);
    core::Testbed victim = make_case_testbed(c);
    for (int k = 0; k < 48; ++k) {
      std::string mutated = blob;
      const std::size_t pos =
          static_cast<std::size_t>(rng.next_u64() % mutated.size());
      mutated[pos] = static_cast<char>(
          mutated[pos] ^ static_cast<char>(1u << (rng.next_u64() % 8)));
      const ReviveResult rv =
          revive_user(mutated, c.profile.user_id, victim, nullptr);
      ASSERT_EQ(rv.status, ReviveStatus::Corrupt)
          << "state " << i << " flip at " << pos;
    }
  }
}

TEST(FleetParkedStateTest, WrongVersionFailsEvenWithValidChecksum) {
  const StateCase c = case_for(1);
  core::Testbed tb = make_case_testbed(c);
  std::uint64_t stragglers = 0;
  std::string blob = park_state(c, tb, stragglers);
  ASSERT_GT(blob.size(), 16u);
  // Patch the version field (bytes 4..5, little-endian) and re-seal the
  // checksum so only the version check can reject it.
  blob[4] = static_cast<char>(kParkedFormatVersion + 1);
  const std::uint64_t sum =
      fnv1a64(std::string_view(blob.data(), blob.size() - 8));
  for (int b = 0; b < 8; ++b) {
    blob[blob.size() - 8 + static_cast<std::size_t>(b)] =
        static_cast<char>((sum >> (8 * b)) & 0xff);
  }
  core::Testbed victim = make_case_testbed(c);
  const ReviveResult rv = revive_user(blob, c.profile.user_id, victim, nullptr);
  EXPECT_EQ(rv.status, ReviveStatus::Corrupt);
}

TEST(FleetParkedStateTest, WrongUserIdFailsClosed) {
  const StateCase c = case_for(2);
  core::Testbed tb = make_case_testbed(c);
  std::uint64_t stragglers = 0;
  const std::string blob = park_state(c, tb, stragglers);
  core::Testbed victim = make_case_testbed(c);
  EXPECT_EQ(revive_user(blob, c.profile.user_id + 1, victim, nullptr).status,
            ReviveStatus::Corrupt);
}

TEST(FleetParkedStateTest, CorruptReviveLeavesTestbedCold) {
  // Fail-closed means *no* partial state lands: after a corrupt revive
  // the testbed must replay the visit exactly like a brand-new user.
  const StateCase c = case_for(3);
  core::Testbed tb = make_case_testbed(c);
  std::uint64_t stragglers = 0;
  std::string blob = park_state(c, tb, stragglers);
  blob.resize(blob.size() / 2);  // lose the tail mid-entry

  core::Testbed victim = make_case_testbed(c);
  ASSERT_EQ(revive_user(blob, c.profile.user_id, victim, nullptr).status,
            ReviveStatus::Corrupt);
  core::Testbed fresh = make_case_testbed(c);
  expect_same_visit(core::run_visit(victim, c.probe),
                    core::run_visit(fresh, c.probe), c.profile.user_id);
}

}  // namespace
}  // namespace catalyst::fleet
