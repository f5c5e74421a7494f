// A shard: one worker-sized batch of users replayed sequentially on
// private state.
//
// Shards own everything they touch — site catalog, testbeds, event loops —
// so two shards never share a mutable object and can run on different
// threads without synchronization. Site content memoization (Resource's
// lazy version cache) is the reason sharing is off the table; regenerating
// the catalog per shard is deterministic and costs microseconds per site.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "core/experiment.h"
#include "edge/pop.h"
#include "fleet/report.h"
#include "fleet/user_model.h"

namespace catalyst::fleet {

/// Whole-fleet configuration shared (read-only) by every shard.
struct FleetParams {
  UserModelParams user_model;

  /// Strategy under test.
  core::StrategyKind strategy = core::StrategyKind::Catalyst;

  /// Comparison strategy replayed over the same users/timelines to price
  /// RTTs/bytes saved and PLT reduction. Set equal to `strategy` to skip
  /// the second replay (halves the work; saved/reduction stats stay 0).
  core::StrategyKind baseline = core::StrategyKind::Baseline;

  /// Per-testbed knobs; `mobile_client` is overridden per user.
  core::StrategyOptions options;

  /// Fault-injection knobs applied to every user's network (default: all
  /// zero, no fault layer). The per-user testbed keys the decision stream
  /// by user id, so fault schedules — like everything else — are a pure
  /// function of (seed, user id) and independent of sharding/threading.
  netsim::FaultSpec faults;

  /// Users per shard. Purely a scheduling granularity: results are
  /// bit-identical for any value because each user's replay is
  /// self-contained and merging is canonicalized.
  std::uint64_t shard_size = 256;

  /// Streaming shard engine: cap on concurrently materialized (live)
  /// users per shard. 0 (the default) selects the legacy engine, which
  /// replays each user's whole timeline in one testbed before moving on.
  /// > 0 switches the shard to time-ordered visit processing: a
  /// fixed-size arena holds at most this many live users, and between
  /// visits the least-soon-needed user is serialized to a compact
  /// ParkedUser blob (fleet/parked) and revived on its next arrival, so
  /// resident testbed state is O(max_live_users), not O(shard users).
  /// Reports are bit-identical to the legacy engine for any value.
  /// Incompatible with edge PoPs, the adversary, and cross-visit
  /// server-learned strategies (CatalystLearned/PushLearned/RdrProxy),
  /// whose state lives outside the parked client snapshot.
  std::uint64_t max_live_users = 0;

  /// Edge tier (pops == 0: no edge anywhere, identical to pre-edge runs).
  /// When enabled, sharding switches from contiguous user ranges to
  /// one-shard-per-PoP so cache sharing never crosses a thread boundary.
  edge::EdgeTierParams edge;

  /// Record replayable JSONL traces (check::trace_to_jsonl) for users with
  /// id < trace_users (0 = off). Keyed by user id in the report, so the
  /// exported stream is bit-identical for any --threads/--shard-size.
  std::uint64_t trace_users = 0;

  /// Per-request phase breakdown (fleetsim --breakdown). Each shard owns
  /// one obs::Recorder per strategy arm and exports the folded histograms
  /// through FleetReport::phases / baseline_phases. Off (the default)
  /// leaves the loop's recorder null and reports byte-identical to
  /// pre-obs builds.
  bool breakdown = false;

  /// True when the streaming engine reproduces this configuration
  /// bit-identically: every piece of cross-visit state lives inside the
  /// parked client snapshot. Shared edge PoPs, the scripted adversary,
  /// and server/proxy-learned strategies keep state outside it, so
  /// Shard::run falls back to the legacy engine for those even when
  /// max_live_users is set. fleetsim rejects the same combinations
  /// loudly at argument parse time; this predicate is the safety net
  /// for library callers (tests, benches, future tools).
  bool streaming_compatible() const {
    if (edge.enabled() || options.adversary.enabled) return false;
    for (const core::StrategyKind k : {strategy, baseline}) {
      if (k == core::StrategyKind::CatalystLearned ||
          k == core::StrategyKind::PushLearned ||
          k == core::StrategyKind::RdrProxy) {
        return false;
      }
    }
    return true;
  }
};

/// Contiguous user-id range [first_user, first_user + user_count). In
/// edge mode the range spans the whole fleet and `pop` selects which of
/// those users — the ones edge_pop_of maps to this PoP — the shard runs.
struct ShardTask {
  std::size_t shard_index = 0;
  std::uint64_t first_user = 0;
  std::uint64_t user_count = 0;
  int pop = -1;  // >= 0: replay only this PoP's users, sharing its cache
};

/// Replays one batch of users and accumulates their FleetReport.
class Shard {
 public:
  Shard(const FleetParams& params, ShardTask task)
      : params_(params), task_(task) {}

  /// Runs every user in the batch (ascending user id, so the report's
  /// Summary sample order is canonical) and returns the shard report.
  FleetReport run();

 private:
  std::shared_ptr<server::Site> site_for(int site_index);
  /// Default engine: replays each user's whole timeline, arm by arm,
  /// before moving to the next user.
  FleetReport run_user_major();
  void replay_user(const UserProfile& profile, FleetReport& report);
  /// Streaming engine (params_.max_live_users > 0): time-ordered visit
  /// processing over a bounded live-user arena with park/revive.
  FleetReport run_streaming();

  const FleetParams& params_;
  ShardTask task_;
  // Lazily generated, shard-private site catalog. Users of one shard that
  // share a site share memoized content (single-threaded, safe).
  std::map<int, std::shared_ptr<server::Site>> sites_;
  // Edge mode: this shard's PoP, one cache per arm so the baseline replay
  // never warms (or is warmed by) the treatment's shared state. Only the
  // treatment PoP's stats are exported.
  std::unique_ptr<edge::EdgePop> treat_pop_;
  std::unique_ptr<edge::EdgePop> base_pop_;
  // Breakdown mode: one recorder per arm, accumulated across every user
  // in the batch (virtual time only — recording never perturbs replay).
  obs::Recorder treat_recorder_;
  obs::Recorder base_recorder_;
};

}  // namespace catalyst::fleet
