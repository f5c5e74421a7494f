#include "workloads.h"

#include <algorithm>

namespace perfbench {

using namespace catalyst;

namespace {

// Paper mechanism: warm caches. Default user model (up to 6 visits, 36 h
// mean gap), H1, no edge, no faults.
void configure_revisit(fleet::FleetParams&) {}

// Shared PoP state: 4 PoPs of 8 MiB RAM plus 32 MiB flash each. A PoP
// sees 12 users per cohort, whose fills never outgrow 64 MiB of RAM, so
// the flash tier would sit idle at fleetsim's default sizes; at these it
// takes demotions, reads and admission rejects on every cohort.
void configure_edge_flash(fleet::FleetParams& p) {
  p.edge.pops = 4;
  p.edge.capacity = MiB(8);
  p.edge.flash_capacity = MiB(32);
}

// edge-flash plus 1% loss (mid-stream drops, and silent stalls at a
// quarter of that rate): retries, timeouts and failed loads. Its runs
// fail today: an origin fetch that stalls leaves the PoP's fill, and
// every request coalesced onto it, unanswered until the testbed is torn
// down, so requests exceeds the sum of PoP outcomes.
void configure_edge_flash_loss(fleet::FleetParams& p) {
  configure_edge_flash(p);
  p.faults.loss_rate = 0.01;
  p.faults.stall_rate = 0.01 / 4.0;
}

// Write side: mostly cold loads over H2, every serve audited.
void configure_cold_h2_oracle(fleet::FleetParams& p) {
  p.options.browser_protocol = netsim::Protocol::H2;
  p.options.byte_oracle = true;
  p.user_model.mean_visit_gap = hours(120);
  p.user_model.max_visits = 2;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"revisit", 24, 24, false, configure_revisit},
      {"edge-flash", 12, 48, false, configure_edge_flash},
      {"edge-flash-loss", 12, 48, false, configure_edge_flash_loss},
      {"cold-h2-oracle", 24, 24, true, configure_cold_h2_oracle},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t cohort_seed(std::uint64_t seed, int cohort) {
  return seed * 1000 + static_cast<std::uint64_t>(cohort);
}

fleet::FleetParams cohort_params(const Workload& w, std::uint64_t seed,
                                 int cohort) {
  fleet::FleetParams p;
  p.strategy = core::StrategyKind::Catalyst;
  p.baseline = core::StrategyKind::Baseline;
  const std::uint64_t s = cohort_seed(seed, cohort);
  p.user_model.master_seed = s;
  p.user_model.sitegen_seed = s;
  p.faults.fault_seed = s;
  // Two shards per worker so one long user does not idle the pool.
  p.shard_size = std::max<std::uint64_t>(
      1, (w.users_per_cohort + 2 * kThreads - 1) / (2 * kThreads));
  w.configure(p);
  return p;
}

workload::SitegenParams site_params(const fleet::FleetParams& params,
                                    int index) {
  workload::SitegenParams sp;
  sp.seed = params.user_model.sitegen_seed;
  sp.site_index = index;
  sp.clone_static_snapshot = params.user_model.clone_static_snapshot;
  sp.errors.dead_link_fraction = params.user_model.dead_link_fraction;
  sp.errors.gone_link_fraction = params.user_model.gone_link_fraction;
  sp.errors.soft404_fraction = params.user_model.soft404_fraction;
  return sp;
}

std::vector<fleet::ShardTask> shard_tasks(const fleet::FleetParams& params,
                                          std::uint64_t users) {
  std::vector<fleet::ShardTask> tasks;
  if (params.edge.enabled()) {
    for (int pop = 0; pop < params.edge.pops; ++pop) {
      fleet::ShardTask t;
      t.shard_index = static_cast<std::size_t>(pop);
      t.user_count = users;
      t.pop = pop;
      tasks.push_back(t);
    }
    return tasks;
  }
  const std::uint64_t size = std::max<std::uint64_t>(params.shard_size, 1);
  for (std::uint64_t first = 0; first < users; first += size) {
    fleet::ShardTask t;
    t.shard_index = tasks.size();
    t.first_user = first;
    t.user_count = std::min(size, users - first);
    tasks.push_back(t);
  }
  return tasks;
}

edge::EdgeConfig pop_config(const fleet::FleetParams& params, int pop) {
  edge::EdgeConfig ec;
  ec.pop_id = pop;
  ec.capacity = params.edge.capacity;
  ec.tinylfu_admission = params.edge.admission;
  ec.negative = params.edge.negative;
  ec.vulnerable_keying = params.edge.vulnerable_keying;
  if (params.edge.flash_enabled()) {
    ec.flash.capacity = params.edge.flash_capacity;
    ec.flash.device.read_latency = params.edge.flash_read_latency;
    ec.flash.device.queue_depth = params.edge.flash_queue_depth;
    ec.flash.seed = params.user_model.master_seed;
  }
  return ec;
}

}  // namespace perfbench
