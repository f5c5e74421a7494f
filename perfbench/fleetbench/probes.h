// Per-layer probes of the traced run. Each one times calls into a single
// module's public functions from outside the simulator, on the inputs of
// the workload being traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/report.h"
#include "fleet/shard.h"

namespace perfbench {

/// num / den, or 0 when there is nothing to divide by (a layer that did
/// no work).
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// fleet::Shard::run called once per shard task on the calling thread,
/// then the canonical merge and serialization FleetRunner performs.
struct ShardProbe {
  double cpu_max_over_mean = 0.0;  // slowest shard's CPU over the mean
  double merge_us = 0.0;           // per FleetReport::merge call
  double serialize_ms = 0.0;       // FleetReport::serialize of the merge
  std::string serialized;          // must match FleetRunner's report
};
ShardProbe probe_shards(const catalyst::fleet::FleetParams& params,
                        std::uint64_t users);

/// Users replayed visit by visit through core::make_testbed and
/// core::run_visit (both strategy arms), plus the Catalyst module's
/// decorate_html on the same serve sequence.
struct VisitProbe {
  double make_testbed_us = 0.0;
  double visit_ms_cold = 0.0;
  double visit_ms_revisit = 0.0;
  double rtts_per_revisit = 0.0;        // treatment arm
  double decorate_html_us = 0.0;
  double scan_memo_hit_ratio = 0.0;     // treatment origins' scan memo
  double map_header_bytes_per_html = 0.0;
  /// Revisits whose fetch outcomes did not add up to resources_total.
  std::uint64_t outcome_mismatches = 0;
};
VisitProbe probe_visits(const std::vector<catalyst::fleet::FleetParams>& cohorts,
                        std::uint64_t users_per_cohort);

/// Resident KiB per treatment testbed held live after one cold visit
/// (with an edge tier, the testbeds share one PoP, whose fill counts).
double probe_live_testbed_kib(
    const std::vector<catalyst::fleet::FleetParams>& cohorts);

/// fleet::park_user / revive_user on live (treatment, baseline) testbed
/// pairs after their cold visit.
struct ParkProbe {
  double park_us = 0.0;
  double revive_us = 0.0;
  double parked_kib_per_user = 0.0;
  std::uint64_t corrupt_revivals = 0;  // must stay 0
};
ParkProbe probe_parking(const std::vector<catalyst::fleet::FleetParams>& cohorts);

/// Mean microseconds per fleet::make_user_profile call.
double probe_user_profile_us(
    const std::vector<catalyst::fleet::FleetParams>& cohorts,
    std::uint64_t users_per_cohort);

}  // namespace perfbench
