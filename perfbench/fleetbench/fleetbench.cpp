// fleetbench — the fleet benchmark program.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//
// Replays a named workload (workloads.h) through fleet::FleetRunner with
// kThreads worker threads as closed-loop batch replay: a fixed population
// runs as fast as the host allows, pass after pass, for S seconds.
//
// --trace 0 prints the end-to-end metrics, each the median over passes:
//   cpu_s_per_kuser  process CPU per 1000 simulated users (both arms)
//   users_per_s      simulated users per wall second
//   peak_rss_mib     getrusage max RSS of the process
//   setup_s          catalog generate_site calls + FleetRunner
//                    construction: the median of kSetupsPerPass set-ups
//                    timed between cohorts of every pass
// --trace 1 prints the per-layer metrics: counts from the replayed
// reports, the obs self-profile of a timed replay, and the probes of
// probes.h.
//
// Every pass's report digests must match the first pass's, and every
// report must hold the checks of checks.h; a run that fails any check
// prints "correct": false, no metrics, and exits 1. Digests and any
// failures go to stdout before the result line, which is always last.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "fleet/runner.h"
#include "host.h"
#include "obs/selfprof.h"
#include "probes.h"
#include "workloads.h"

using namespace catalyst;
using namespace perfbench;

namespace {

// Set-ups the traced run times before its first pass, after one untimed
// warm-up; they give workload.sitegen_ms_per_site.
constexpr int kSetupRepeats = 15;
// Set-ups the untraced run times in each pass, evenly spaced between its
// cohorts. The host's speed moves within seconds, so set-ups spread over
// the whole run agree from run to run far better than a burst at its
// start.
constexpr int kSetupsPerPass = 12;
constexpr int kMinPasses = 3;
// Cohorts the traced run also replays shard by shard on one thread.
constexpr std::size_t kShardProbeCohorts = 6;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Options& o) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = find_workload(value);
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o.workload != nullptr && have_seed &&
         have_seconds && have_trace;
}

std::vector<fleet::FleetParams> all_cohort_params(const Workload& w,
                                                  std::uint64_t seed) {
  std::vector<fleet::FleetParams> params;
  for (int c = 0; c < w.cohorts; ++c) {
    params.push_back(cohort_params(w, seed, c));
  }
  return params;
}

/// One set-up, before the first replayed user: generate every cohort's
/// catalog, then construct its FleetRunner. A catalog is held only while
/// it is generated, as a shard holds only its own cohort's.
struct Setup {
  double total_s = 0.0;
  double sitegen_s = 0.0;  // the generate_site share
};

Setup setup_once(const Workload& w, std::uint64_t seed) {
  Setup out;
  const double t0 = wall_s();
  const std::vector<fleet::FleetParams> params = all_cohort_params(w, seed);
  for (const fleet::FleetParams& p : params) {
    std::vector<std::shared_ptr<server::Site>> catalog;
    for (int i = 0; i < p.user_model.site_catalog_size; ++i) {
      catalog.push_back(workload::generate_site(site_params(p, i)));
    }
  }
  out.sitegen_s = wall_s() - t0;
  std::vector<std::unique_ptr<fleet::FleetRunner>> runners;
  for (const fleet::FleetParams& p : params) {
    runners.push_back(std::make_unique<fleet::FleetRunner>(
        p, w.users_per_cohort, kThreads));
  }
  out.total_s = wall_s() - t0;
  return out;
}

/// One replay of every cohort. Its times sum those of the cohort
/// replays, so set-ups timed between cohorts are not part of them.
struct Pass {
  std::vector<fleet::FleetReport> reports;  // one per cohort
  std::vector<std::string> serialized;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t users = 0;

  /// One digest over every cohort's serialized report.
  std::string digest() const {
    std::string all;
    for (const std::string& s : serialized) all += s;
    return report_digest(all);
  }
};

/// Replays every cohort. With `setups` set, also times kSetupsPerPass
/// set-ups of seed `seed`, evenly spaced between the cohorts, and
/// appends their times to it.
Pass replay_pass(const Workload& w,
                 const std::vector<fleet::FleetParams>& params,
                 std::uint64_t seed = 0,
                 std::vector<double>* setups = nullptr) {
  Pass pass;
  const std::size_t n = params.size();
  std::size_t next_setup = 1;
  for (std::size_t c = 0; c < n; ++c) {
    const double c0 = process_cpu_s();
    const double t0 = wall_s();
    pass.reports.push_back(
        fleet::FleetRunner(params[c], w.users_per_cohort, kThreads).run());
    pass.wall_s += wall_s() - t0;
    pass.cpu_s += process_cpu_s() - c0;
    // Set-up k of the pass follows cohort ceil(k * n / kSetupsPerPass).
    while (setups != nullptr && next_setup <= kSetupsPerPass &&
           next_setup * n <= (c + 1) * kSetupsPerPass) {
      setups->push_back(setup_once(w, seed).total_s);
      ++next_setup;
    }
  }
  for (const fleet::FleetReport& r : pass.reports) {
    pass.serialized.push_back(r.serialize());
    pass.users += r.users;
  }
  return pass;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Checks every cohort report of the first pass.
void check_pass(const Workload& w, const Pass& pass, Verdict& verdict) {
  for (std::size_t c = 0; c < pass.reports.size(); ++c) {
    check_report("cohort " + std::to_string(c), pass.reports[c],
                 pass.serialized[c], w.oracle, verdict);
  }
}

fleet::FleetReport merge_all(const std::vector<fleet::FleetReport>& reports) {
  fleet::FleetReport merged;
  for (const fleet::FleetReport& r : reports) merged.merge(r);
  return merged;
}

std::vector<Metric> untraced_run(const Options& o, double deadline,
                                 std::vector<double>& setups,
                                 const Pass& first,
                                 const std::vector<fleet::FleetParams>& params,
                                 Verdict& verdict, std::uint64_t& attempted,
                                 std::uint64_t& failed) {
  const Workload& w = *o.workload;
  std::vector<double> cpu_per_kuser, users_per_s;
  const std::string expected = first.digest();
  for (int n = 0; n < kMinPasses || wall_s() < deadline; ++n) {
    const Pass pass =
        n == 0 ? first : replay_pass(w, params, o.seed, &setups);
    attempted += pass.users;
    const std::string digest = pass.digest();
    if (digest != expected) {
      failed += pass.users;
      check_same_digest("pass " + std::to_string(n), expected, digest,
                        verdict);
    }
    cpu_per_kuser.push_back(1000.0 * pass.cpu_s /
                            static_cast<double>(pass.users));
    users_per_s.push_back(static_cast<double>(pass.users) / pass.wall_s);
    std::fprintf(stderr,
                 "perfbench: pass %d: %.3f CPU-s, %.3f wall-s, set-up %.4f s "
                 "(median of the pass's)\n",
                 n, pass.cpu_s, pass.wall_s,
                 median({setups.end() - kSetupsPerPass, setups.end()}));
  }
  return {
      {"cpu_s_per_kuser", median(cpu_per_kuser), "s"},
      {"users_per_s", median(users_per_s), "1/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"setup_s", median(setups), "s"},
  };
}

std::vector<Metric> traced_run(const Options& o, double deadline,
                               double sitegen_s, const Pass& first,
                               const std::vector<fleet::FleetParams>& params,
                               Verdict& verdict, std::uint64_t& attempted) {
  const Workload& w = *o.workload;
  const std::string expected = first.digest();

  // Untraced and self-profiled passes alternate until the run's time is
  // up; trace_overhead_ratio is their CPU ratio.
  double untraced_cpu = first.cpu_s, traced_cpu = 0.0;
  double traced_users = 0.0;
  obs::ProfCounters prof;
  attempted += first.users;
  for (int n = 0; n == 0 || wall_s() < deadline; ++n) {
    if (n > 0) {
      const Pass plain = replay_pass(w, params);
      untraced_cpu += plain.cpu_s;
      attempted += plain.users;
      check_same_digest("untraced pass", expected, plain.digest(), verdict);
    }
    obs::set_timing(true);
    const Pass traced = replay_pass(w, params);
    obs::set_timing(false);
    traced_cpu += traced.cpu_s;
    traced_users += static_cast<double>(traced.users);
    attempted += traced.users;
    check_same_digest("traced pass", expected, traced.digest(), verdict);
    prof.merge(merge_all(traced.reports).prof);
  }

  // Shard-level replay on this thread must reproduce the runner's bytes.
  double shard_imbalance = 0.0, merge_us = 0.0, serialize_ms = 0.0;
  const std::size_t shard_cohorts = std::min(kShardProbeCohorts, params.size());
  for (std::size_t c = 0; c < shard_cohorts; ++c) {
    const ShardProbe s = probe_shards(params[c], w.users_per_cohort);
    check_same_digest("shard replay of cohort " + std::to_string(c),
                      report_digest(first.serialized[c]),
                      report_digest(s.serialized), verdict);
    shard_imbalance += s.cpu_max_over_mean;
    merge_us += s.merge_us;
    serialize_ms += s.serialize_ms;
  }
  const double probed = static_cast<double>(shard_cohorts);
  const double cohorts = static_cast<double>(params.size());

  const VisitProbe visits = probe_visits(params, w.users_per_cohort);
  if (visits.outcome_mismatches != 0) {
    verdict.fail(std::to_string(visits.outcome_mismatches) +
                 " probed revisits whose fetch outcomes do not sum to "
                 "resources_total");
  }
  const ParkProbe parking = probe_parking(params);
  if (parking.corrupt_revivals != 0) {
    verdict.fail(std::to_string(parking.corrupt_revivals) +
                 " parked users failed to revive");
  }
  const double live_kib = probe_live_testbed_kib(params);
  const double profile_us = probe_user_profile_us(params, w.users_per_cohort);
  const double sites = cohorts * params.front().user_model.site_catalog_size;

  const fleet::FleetReport r = merge_all(first.reports);
  const double users = static_cast<double>(r.users);
  const double visits_n = static_cast<double>(r.visits);
  const double fetches = static_cast<double>(r.counters.total());
  fleet::EdgePopReport e;
  for (const auto& [pop, s] : r.edge_pops) e.merge(s);
  const double edge_requests = static_cast<double>(e.requests);

  std::vector<Metric> m = {
      {"fleet.shard_cpu_max_over_mean", shard_imbalance / probed, "ratio"},
      {"fleet.user_profile_us", profile_us, "us"},
      {"fleet.park_us", parking.park_us, "us"},
      {"fleet.revive_us", parking.revive_us, "us"},
      {"fleet.parked_kib_per_user", parking.parked_kib_per_user, "KiB"},
      {"fleet.report_merge_us", merge_us / probed, "us"},
      {"fleet.report_serialize_ms", serialize_ms / probed, "ms"},
      {"workload.sitegen_ms_per_site", 1e3 * sitegen_s / sites, "ms"},
      {"core.make_testbed_us", visits.make_testbed_us, "us"},
      {"core.visit_ms.cold", visits.visit_ms_cold, "ms"},
      {"core.visit_ms.revisit", visits.visit_ms_revisit, "ms"},
      {"core.live_testbed_kib", live_kib, "KiB"},
      {"server.decorate_html_us", visits.decorate_html_us, "us"},
      {"server.scan_memo_hit_ratio", visits.scan_memo_hit_ratio, "ratio"},
      {"server.map_header_bytes_per_html", visits.map_header_bytes_per_html,
       "B"},
      {"cache.sw_hit_share",
       ratio(static_cast<double>(r.counters.from_sw_cache), fetches), "ratio"},
      {"cache.http_hit_share",
       ratio(static_cast<double>(r.counters.from_cache), fetches), "ratio"},
      {"cache.revalidated_share",
       ratio(static_cast<double>(r.counters.not_modified), fetches), "ratio"},
      {"cache.network_share",
       ratio(static_cast<double>(r.counters.from_network), fetches), "ratio"},
      {"netsim.events_per_user",
       ratio(static_cast<double>(r.events_executed), users), "count"},
      {"netsim.events_per_cpu_s",
       ratio(static_cast<double>(r.events_executed), first.cpu_s), "1/s"},
      {"netsim.rtts_per_revisit", visits.rtts_per_revisit, "count"},
      {"netsim.wire_kib_per_visit",
       ratio(static_cast<double>(r.bytes_on_wire) / 1024.0, visits_n), "KiB"},
      {"netsim.retries", static_cast<double>(r.faults.retries), "count"},
      {"netsim.timeouts", static_cast<double>(r.faults.timeouts), "count"},
      {"netsim.failed_loads", static_cast<double>(r.faults.failed_loads),
       "count"},
      {"edge.ram_hit_ratio", ratio(static_cast<double>(e.hits), edge_requests),
       "ratio"},
      {"edge.flash_hit_ratio",
       ratio(static_cast<double>(e.flash_hits), edge_requests), "ratio"},
      {"edge.origin_fetch_ratio",
       ratio(static_cast<double>(e.origin_fetches), edge_requests), "ratio"},
      {"edge.coalesced", static_cast<double>(e.coalesced), "count"},
      {"edge.admission_rejects", static_cast<double>(e.admission_rejects),
       "count"},
      {"io.aio_reads", static_cast<double>(e.aio_reads), "count"},
      {"io.aio_queue_waits", static_cast<double>(e.aio_queue_waits), "count"},
      {"io.flash_write_amp",
       ratio(static_cast<double>(e.flash_device_bytes),
             static_cast<double>(e.flash_host_bytes)),
       "ratio"},
      {"check.oracle_checked_per_visit",
       ratio(static_cast<double>(r.oracle.checked), visits_n), "count"},
      {"check.violations", static_cast<double>(r.oracle.violations), "count"},
  };
  const double prof_ns = static_cast<double>(prof.total_ns());
  for (const obs::Sub s : obs::kAllSubs) {
    const std::string name = "prof." + std::string(obs::to_string(s));
    const std::size_t i = obs::sub_index(s);
    m.push_back({name + ".cpu_share",
                 ratio(static_cast<double>(prof.ns[i]), prof_ns), "ratio"});
    m.push_back({name + ".ops_per_user",
                 ratio(static_cast<double>(prof.ops[i]), traced_users),
                 "count"});
  }
  m.push_back({"trace_overhead_ratio", ratio(traced_cpu, untraced_cpu),
               "ratio"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:");
    for (const Workload& w : workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                   w.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *o.workload;
  Verdict verdict;
  std::uint64_t attempted = 0, failed = 0;

  setup_once(w, o.seed);  // warm-up: first-touch page faults
  std::vector<double> setups, sitegens;
  for (int i = 0; o.trace && i < kSetupRepeats; ++i) {
    sitegens.push_back(setup_once(w, o.seed).sitegen_s);
  }

  const std::vector<fleet::FleetParams> params = all_cohort_params(w, o.seed);
  const double deadline = wall_s() + o.seconds;
  const Pass first =
      replay_pass(w, params, o.seed, o.trace ? nullptr : &setups);
  check_pass(w, first, verdict);
  std::printf("perfbench: workload=%.*s seed=%llu trace=%d cohorts=%d "
              "users=%llu threads=%d digest=%s\n",
              static_cast<int>(w.name.size()), w.name.data(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              w.cohorts, static_cast<unsigned long long>(first.users),
              kThreads, first.digest().c_str());

  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = traced_run(o, deadline, median(sitegens), first, params,
                         verdict, attempted);
  } else {
    metrics = untraced_run(o, deadline, setups, first, params,
                           verdict, attempted, failed);
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) verdict.fail(m.name + " is not finite");
  }
  for (const std::string& f : verdict.failures()) {
    std::printf("perfbench: FAILED %s\n", f.c_str());
  }
  if (!verdict.ok() && failed == 0) failed = attempted;
  std::printf("%s\n", result_line(verdict, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return verdict.ok() ? 0 : 1;
}
