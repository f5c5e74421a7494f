#include "fleet/shard.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/replay.h"
#include "fleet/parked.h"
#include "obs/selfprof.h"
#include "util/pool.h"
#include "workload/sitegen.h"

namespace catalyst::fleet {

namespace {

/// One user's private testbed for one strategy arm: the per-user knob
/// binding shared by the legacy and streaming engines, so both replay
/// bit-identical visits.
core::Testbed make_user_testbed(const std::shared_ptr<server::Site>& site,
                                const UserProfile& profile,
                                core::StrategyKind kind,
                                core::StrategyOptions options,
                                netsim::FaultSpec faults,
                                edge::EdgePop* edge_pop,
                                Duration edge_origin_rtt,
                                obs::Recorder* recorder) {
  options.mobile_client = profile.mobile_client;
  // Bind this arm's shared PoP (if any) and phase recorder (if breakdown
  // is on) into the user's private testbed.
  options.edge_pop = edge_pop;
  options.phase_recorder = recorder;
  if (edge_pop != nullptr) options.edge_origin_rtt = edge_origin_rtt;
  netsim::NetworkConditions conditions = conditions_for(profile.tier);
  conditions.faults = faults;
  // Key the fault decision stream by user id (the fleet RNG discipline):
  // user i's faults are the same regardless of shard or thread count.
  conditions.faults.stream = profile.user_id;
  return core::make_testbed(site, conditions, kind, options);
}

/// Replays one user's visit timeline under one strategy in a fresh
/// testbed (cache and Service Worker state persist across the timeline,
/// exactly like run_visit_sequence).
std::vector<client::PageLoadResult> replay_timeline(
    const std::shared_ptr<server::Site>& site, const UserProfile& profile,
    core::StrategyKind kind, const core::StrategyOptions& options,
    const netsim::FaultSpec& faults, edge::EdgePop* edge_pop,
    Duration edge_origin_rtt, obs::Recorder* recorder) {
  core::Testbed tb = make_user_testbed(site, profile, kind, options, faults,
                                       edge_pop, edge_origin_rtt, recorder);
  std::vector<client::PageLoadResult> results;
  results.reserve(profile.visits.size());
  for (const TimePoint at : profile.visits) {
    results.push_back(core::run_visit(tb, at));
  }
  return results;
}

/// A live (materialized) streaming-engine user: its profile and one
/// testbed per strategy arm. Slot contents are reset by SlabPool release.
struct LiveUser {
  UserProfile profile;
  std::unique_ptr<core::Testbed> treat;
  std::unique_ptr<core::Testbed> base;
  /// Straggler events drained at park time (or carried from revive), owed
  /// to the next visit's loop_events so totals match the legacy engine.
  std::uint64_t carry_treat = 0;
  std::uint64_t carry_base = 0;
};

/// Per-user tallies: the one path from a visit's PageLoadResult to the
/// FleetReport. Both engines tally each visit with accumulate_visit and
/// fold each user with fold_user in ascending user-id order; the
/// streaming engine, whose visits arrive interleaved across users, holds
/// every accumulator until shard end.
struct UserAccum {
  std::uint64_t visits = 0;
  bool traced = false;
  std::string trace_jsonl;
  ByteCount bytes_on_wire = 0;
  ByteCount baseline_bytes_on_wire = 0;
  std::uint64_t rtts = 0;
  std::uint64_t baseline_rtts = 0;
  std::uint64_t events_executed = 0;
  FaultCounters faults;
  OracleCounters oracle;
  std::uint64_t negative_hits = 0;
  CacheCounters counters;
  std::uint64_t fetches = 0;
  std::uint64_t avoided = 0;
  /// Per-revisit samples in visit order (Summary adds are replayed from
  /// these at fold time, so the sample sequence is per-user visit order).
  std::vector<double> plt_ms;
  std::vector<double> reduction_pct;
  double reduction_sum = 0.0;
  std::size_t reduction_n = 0;
};

/// Tallies one visit (visit index `vi`) into the user's accumulator. `b`
/// is the same visit under the baseline arm, or null when single-arm.
/// Fault and oracle tallies cover every treatment visit, the cold load
/// included; cache counters and PLT samples cover revisits only.
void accumulate_visit(UserAccum& a, std::size_t vi,
                      const client::PageLoadResult& r,
                      const client::PageLoadResult* b, std::uint64_t user_id,
                      std::uint64_t trace_users) {
  a.visits += 1;
  if (user_id < trace_users) {
    a.traced = true;
    a.trace_jsonl +=
        check::trace_to_jsonl(r, user_id, static_cast<std::uint32_t>(vi));
  }
  a.bytes_on_wire += r.bytes_downloaded;
  a.rtts += r.rtts;
  a.events_executed += r.loop_events;
  if (b != nullptr) {
    a.baseline_bytes_on_wire += b->bytes_downloaded;
    a.baseline_rtts += b->rtts;
    a.events_executed += b->loop_events;
  }
  a.faults.timeouts += r.timeouts_fired;
  a.faults.retries += r.retries;
  a.faults.connection_failures += r.connection_failures;
  a.faults.fallback_revalidations += r.fallback_revalidations;
  a.faults.failed_loads += r.failed_loads;
  a.oracle.checked += r.oracle_checked;
  a.oracle.allowed_stale += r.oracle_allowed_stale;
  a.oracle.violations += r.oracle_violations;
  a.oracle.poisoned_serves += r.oracle_poisoned;
  a.oracle.cross_user_leaks += r.oracle_leaks;
  a.negative_hits += r.negative_hits;
  if (vi == 0) return;  // cold load: all-network by construction

  CacheCounters c;
  c.from_network = r.from_network;
  c.from_cache = r.from_cache;
  c.not_modified = r.not_modified;
  c.from_sw_cache = r.from_sw_cache;
  c.from_push = r.from_push;
  c.stale_served = r.stale_served;
  a.counters.merge(c);
  a.fetches += c.total();
  a.avoided += c.avoided_downloads();

  a.plt_ms.push_back(to_millis(r.plt()));
  if (b != nullptr) {
    const double base_ms = to_millis(b->plt());
    if (base_ms > 0.0) {
      const double reduction =
          100.0 * (base_ms - to_millis(r.plt())) / base_ms;
      a.reduction_pct.push_back(reduction);
      a.reduction_sum += reduction;
      ++a.reduction_n;
    }
  }
}

/// Folds one user's accumulator into the shard report. Called in
/// ascending user-id order, so Summary sample sequences are canonical.
void fold_user(const UserAccum& a, std::uint64_t user_id,
               FleetReport& report) {
  report.users += 1;
  report.visits += a.visits;
  report.revisits += a.visits - 1;
  if (a.traced) report.traces.emplace(user_id, a.trace_jsonl);
  report.bytes_on_wire += a.bytes_on_wire;
  report.rtts += a.rtts;
  report.events_executed += a.events_executed;
  report.baseline_bytes_on_wire += a.baseline_bytes_on_wire;
  report.baseline_rtts += a.baseline_rtts;
  report.faults.merge(a.faults);
  report.oracle.merge(a.oracle);
  report.negative_hits += a.negative_hits;
  report.counters.merge(a.counters);
  for (const double v : a.plt_ms) report.plt_ms.add(v);
  for (const double v : a.reduction_pct) report.plt_reduction_pct.add(v);
  if (a.reduction_n > 0) {
    report.per_user_plt_reduction_pct.add(
        a.reduction_sum / static_cast<double>(a.reduction_n));
  }
  if (a.fetches > 0) {
    report.per_user_hit_rate_pct.add(100.0 *
                                     static_cast<double>(a.avoided) /
                                     static_cast<double>(a.fetches));
  }
}

}  // namespace

std::shared_ptr<server::Site> Shard::site_for(int site_index) {
  auto it = sites_.find(site_index);
  if (it != sites_.end()) return it->second;
  workload::SitegenParams sp;
  sp.seed = params_.user_model.sitegen_seed;
  sp.site_index = site_index;
  sp.clone_static_snapshot = params_.user_model.clone_static_snapshot;
  sp.errors.dead_link_fraction = params_.user_model.dead_link_fraction;
  sp.errors.gone_link_fraction = params_.user_model.gone_link_fraction;
  sp.errors.soft404_fraction = params_.user_model.soft404_fraction;
  auto site = workload::generate_site(sp);
  sites_.emplace(site_index, site);
  return site;
}

void Shard::replay_user(const UserProfile& profile, FleetReport& report) {
  obs::count(obs::Sub::kFleet);
  obs::ScopedTimer prof_timer(obs::Sub::kFleet);
  const auto site = site_for(profile.site_index);
  const auto treat = replay_timeline(
      site, profile, params_.strategy, params_.options, params_.faults,
      treat_pop_.get(), params_.edge.origin_rtt,
      params_.breakdown ? &treat_recorder_ : nullptr);
  const bool compare = params_.baseline != params_.strategy;
  std::vector<client::PageLoadResult> base;
  if (compare) {
    base = replay_timeline(site, profile, params_.baseline, params_.options,
                           params_.faults, base_pop_.get(),
                           params_.edge.origin_rtt,
                           params_.breakdown ? &base_recorder_ : nullptr);
  }

  UserAccum accum;
  for (std::size_t i = 0; i < treat.size(); ++i) {
    accumulate_visit(accum, i, treat[i], compare ? &base[i] : nullptr,
                     profile.user_id, params_.trace_users);
  }
  fold_user(accum, profile.user_id, report);
}

FleetReport Shard::run_streaming() {
  FleetReport report;
  const bool compare = params_.baseline != params_.strategy;
  const std::uint64_t first = task_.first_user;
  const std::size_t n = static_cast<std::size_t>(task_.user_count);

  // Compact per-user state that stays resident for the whole shard:
  // accumulated tallies and the next-visit cursor. Everything heavy (the
  // testbeds) lives in the bounded arena below.
  std::vector<UserAccum> accums(n);
  std::vector<std::uint32_t> next_visit(n, 0);

  // Arrival queue: (visit time, user id), ties broken by user id so the
  // processing order is a pure function of the user model.
  using Arrival = std::pair<TimePoint, std::uint64_t>;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>>
      arrivals;
  for (std::size_t i = 0; i < n; ++i) {
    const UserProfile p = make_user_profile(params_.user_model, first + i);
    if (!p.visits.empty()) arrivals.emplace(p.visits.front(), first + i);
  }

  // The live-user arena and its indexes: user id -> slot handle, plus an
  // ordered (next arrival, user id) index for O(log n) victim selection.
  SlabPool<LiveUser> arena;
  std::unordered_map<std::uint64_t, SlabPool<LiveUser>::Handle> live;
  std::set<Arrival> by_next_arrival;
  // Parked blobs: slab-stored, keyed by user id.
  SlabPool<std::string> blob_store;
  std::unordered_map<std::uint64_t, SlabPool<std::string>::Handle> parked;
  ByteCount parked_bytes = 0;

  // Parks the live user whose next visit is farthest away (lazy victim:
  // nobody needs it sooner than anyone else). Drains its event loops
  // first so the blob snapshots quiescent state; the drained event counts
  // ride along and are owed to the user's next visit.
  const auto park_victim = [&] {
    const auto victim = std::prev(by_next_arrival.end());
    const std::uint64_t vuid = victim->second;
    const SlabPool<LiveUser>::Handle h = live.find(vuid)->second;
    LiveUser* v = arena.get(h);
    const std::uint64_t treat_stragglers =
        v->carry_treat + v->treat->loop->run();
    const std::uint64_t base_stragglers =
        v->carry_base + (v->base ? v->base->loop->run() : 0);
    std::string blob = park_user(vuid, *v->treat, treat_stragglers,
                                 v->base.get(), base_stragglers);
    parked_bytes += blob.size();
    report.parking.parked_bytes_peak =
        std::max<std::uint64_t>(report.parking.parked_bytes_peak,
                                parked_bytes);
    const SlabPool<std::string>::Handle bh = blob_store.acquire();
    *blob_store.get(bh) = std::move(blob);
    parked.emplace(vuid, bh);
    ++report.parking.parks;
    by_next_arrival.erase(victim);
    live.erase(vuid);
    arena.release(h);
  };

  while (!arrivals.empty()) {
    const auto [at, uid] = arrivals.top();
    arrivals.pop();
    obs::ScopedTimer prof_timer(obs::Sub::kFleet);

    SlabPool<LiveUser>::Handle handle;
    LiveUser* lu;
    const auto lit = live.find(uid);
    if (lit != live.end()) {
      handle = lit->second;
      lu = arena.get(handle);
    } else {
      while (arena.live() >= params_.max_live_users) park_victim();
      handle = arena.acquire();
      lu = arena.get(handle);
      lu->profile = make_user_profile(params_.user_model, uid);
      const auto site = site_for(lu->profile.site_index);
      lu->treat = std::make_unique<core::Testbed>(make_user_testbed(
          site, lu->profile, params_.strategy, params_.options,
          params_.faults, nullptr, params_.edge.origin_rtt,
          params_.breakdown ? &treat_recorder_ : nullptr));
      if (compare) {
        lu->base = std::make_unique<core::Testbed>(make_user_testbed(
            site, lu->profile, params_.baseline, params_.options,
            params_.faults, nullptr, params_.edge.origin_rtt,
            params_.breakdown ? &base_recorder_ : nullptr));
      }
      const auto pit = parked.find(uid);
      if (pit != parked.end()) {
        ++report.parking.revives;
        std::string* blob = blob_store.get(pit->second);
        const ReviveResult revived =
            revive_user(*blob, uid, *lu->treat, lu->base.get());
        if (revived.status == ReviveStatus::Ok) {
          lu->carry_treat = revived.treat_stragglers;
          lu->carry_base = revived.base_stragglers;
        } else {
          // Fail closed: the blob was rejected wholesale, the freshly
          // built testbeds stand untouched — a cold restart, never a
          // partially restored user.
          ++report.parking.corrupt_revivals;
        }
        parked_bytes -= blob->size();
        blob_store.release(pit->second);
        parked.erase(pit);
      } else {
        obs::count(obs::Sub::kFleet);  // first materialization == one user
      }
      live.emplace(uid, handle);
      by_next_arrival.insert({at, uid});
      report.parking.live_users_peak = std::max<std::uint64_t>(
          report.parking.live_users_peak, arena.live());
    }

    const std::size_t idx = static_cast<std::size_t>(uid - first);
    const std::uint32_t vi = next_visit[idx];
    client::PageLoadResult r = core::run_visit(*lu->treat, at);
    r.loop_events += lu->carry_treat;
    lu->carry_treat = 0;
    std::optional<client::PageLoadResult> b;
    if (lu->base) {
      b = core::run_visit(*lu->base, at);
      b->loop_events += lu->carry_base;
      lu->carry_base = 0;
    }
    accumulate_visit(accums[idx], vi, r, b ? &*b : nullptr, uid,
                     params_.trace_users);

    next_visit[idx] = vi + 1;
    by_next_arrival.erase({at, uid});
    if (vi + 1 < lu->profile.visits.size()) {
      const TimePoint next_at = lu->profile.visits[vi + 1];
      arrivals.emplace(next_at, uid);
      by_next_arrival.insert({next_at, uid});
    } else {
      // Timeline complete: destroy without parking. Undrained events left
      // after the final visit are dropped with the testbed, exactly as
      // the legacy engine drops them at the end of replay_timeline.
      live.erase(uid);
      arena.release(handle);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    fold_user(accums[i], first + i, report);
  }
  return report;
}

FleetReport Shard::run() {
  // Snapshot this thread's self-profile counters so the report carries
  // exactly what this shard's replay cost (threads are reused across
  // shards, so the raw thread-local totals would double-count).
  const obs::ProfCounters prof_before = obs::tls_prof();
  // Streaming requires every piece of cross-visit state to live in the
  // parked client snapshot; incompatible configurations (edge PoPs, the
  // adversary, server-learned strategies) fall back to user-major replay
  // rather than silently diverging — same reports, just without the
  // memory bound.
  FleetReport report = params_.max_live_users > 0 && task_.pop < 0 &&
                               params_.streaming_compatible()
                           ? run_streaming()
                           : run_user_major();
  if (params_.breakdown) {
    report.phases = treat_recorder_.breakdown();
    report.baseline_phases = base_recorder_.breakdown();
  }
  report.prof = obs::tls_prof().delta(prof_before);
  return report;
}

FleetReport Shard::run_user_major() {
  FleetReport report;
  if (params_.edge.enabled() && task_.pop >= 0) {
    edge::EdgeConfig ec;
    ec.pop_id = task_.pop;
    ec.capacity = params_.edge.capacity;
    ec.tinylfu_admission = params_.edge.admission;
    ec.negative = params_.edge.negative;
    ec.vulnerable_keying = params_.edge.vulnerable_keying;
    if (params_.edge.flash_enabled()) {
      ec.flash.capacity = params_.edge.flash_capacity;
      ec.flash.device.read_latency = params_.edge.flash_read_latency;
      ec.flash.device.queue_depth = params_.edge.flash_queue_depth;
      // Jitter keyed off the fleet's master seed (forked per PoP inside
      // EdgePop) so runs with different seeds draw different streams.
      ec.flash.seed = params_.user_model.master_seed;
    }
    treat_pop_ = std::make_unique<edge::EdgePop>(ec);
    base_pop_ = std::make_unique<edge::EdgePop>(ec);
  }
  for (std::uint64_t i = 0; i < task_.user_count; ++i) {
    const std::uint64_t user_id = task_.first_user + i;
    // Edge mode: the task spans the whole fleet; run only this PoP's
    // users (ascending id, so sample order stays canonical).
    if (task_.pop >= 0 &&
        edge_pop_of(params_.user_model.master_seed, user_id,
                    params_.edge.pops) != task_.pop) {
      continue;
    }
    replay_user(make_user_profile(params_.user_model, user_id), report);
  }
  if (treat_pop_) {
    const edge::EdgePopStats s = treat_pop_->stats();
    EdgePopReport& e = report.edge_pops[task_.pop];
    e.requests = s.requests;
    e.hits = s.hits;
    e.revalidated_hits = s.revalidated_hits;
    e.misses = s.misses;
    e.coalesced = s.coalesced;
    e.origin_fetches = s.origin_fetches;
    e.origin_not_modified = s.origin_not_modified;
    e.origin_errors = s.origin_errors;
    e.admission_rejects = s.admission_rejects;
    e.stores = s.stores;
    e.evictions = s.evictions;
    e.bytes_served = s.bytes_served;
    e.bytes_from_origin = s.bytes_from_origin;
    e.negative_stores = s.negative_stores;
    e.negative_hits = s.negative_hits;
    e.adversary_requests = s.adversary_requests;
    e.adversary_probes = s.adversary_probes;
    e.adversary_probe_hits = s.adversary_probe_hits;
    if (params_.edge.flash_enabled()) {
      e.flash_enabled = true;
      e.flash_hits = s.flash_hits;
      e.flash_coalesced = s.flash_coalesced;
      e.flash_demotions = s.flash_demotions;
      e.flash_promotions = s.flash_promotions;
      e.flash_promotion_rejects = s.flash_promotion_rejects;
      e.flash_stores = s.flash_stores;
      e.flash_evictions = s.flash_evictions;
      e.flash_gc_rewrites = s.flash_gc_rewrites;
      e.flash_bytes_served = s.flash_bytes_served;
      e.flash_host_bytes = s.flash_host_bytes;
      e.flash_device_bytes = s.flash_device_bytes;
      e.aio_reads = s.aio.reads;
      e.aio_writes = s.aio.writes;
      e.aio_merged_reads = s.aio.merged_reads;
      e.aio_queue_waits = s.aio.queue_waits;
      e.aio_peak_inflight = s.aio.peak_inflight;
    }
  }
  return report;
}

}  // namespace catalyst::fleet
