// The benchmark's named fleet workloads and how a run's seed becomes
// their inputs.
//
// A run replays `cohorts` independent cohorts. Each cohort is one fleet:
// its own 40-site catalog and its own population of `users_per_cohort`
// users, both drawn from a seed derived from the run's --seed. Per-user
// cost depends heavily on which catalog a seed draws (Zipf popularity
// puts ~20% of users on the top site, so one heavy page moves the whole
// run); replaying several catalogs per run averages that out, which is
// what keeps the run-to-run spread across seeds small.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "fleet/shard.h"
#include "workload/sitegen.h"

namespace perfbench {

/// Worker threads per FleetRunner (the benchmark host has 4 vCPUs).
inline constexpr int kThreads = 4;

struct Workload {
  std::string_view name;
  /// Independent (catalog, population) draws replayed per pass.
  int cohorts = 0;
  std::uint64_t users_per_cohort = 0;
  /// The byte oracle audits every serve: it must audit something, and
  /// find nothing.
  bool oracle = false;
  /// Applies the workload's fleet knobs on top of the shared defaults.
  void (*configure)(catalyst::fleet::FleetParams&) = nullptr;
};

const std::vector<Workload>& workloads();

/// nullptr when no workload has this name.
const Workload* find_workload(std::string_view name);

/// Seed of cohort `cohort` of a run started with `seed`.
std::uint64_t cohort_seed(std::uint64_t seed, int cohort);

/// Fleet configuration of one cohort: the workload's knobs, with the
/// cohort seed driving the user model, the site generator and the fault
/// schedule.
catalyst::fleet::FleetParams cohort_params(const Workload& w,
                                           std::uint64_t seed, int cohort);

/// Parameters Shard::site_for uses to generate catalog site `index`.
catalyst::workload::SitegenParams site_params(
    const catalyst::fleet::FleetParams& params, int index);

/// The shard tasks FleetRunner::run queues for this configuration, in
/// shard-index order (one per PoP with an edge tier, else contiguous
/// user ranges of params.shard_size).
std::vector<catalyst::fleet::ShardTask> shard_tasks(
    const catalyst::fleet::FleetParams& params, std::uint64_t users);

/// The EdgePop configuration Shard::run builds for PoP `pop`.
catalyst::edge::EdgeConfig pop_config(
    const catalyst::fleet::FleetParams& params, int pop);

}  // namespace perfbench
