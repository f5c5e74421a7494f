#include "probes.h"

#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>

#include "core/experiment.h"
#include "fleet/parked.h"
#include "host.h"
#include "workloads.h"

namespace perfbench {

using namespace catalyst;

namespace {

// Users per cohort the visit and parking probes replay, and testbeds the
// memory probe holds live.
constexpr std::uint64_t kProbeUsers = 3;
constexpr std::size_t kLiveTestbeds = 48;

/// A cohort's catalog, generated on first use like Shard::site_for.
class Catalog {
 public:
  explicit Catalog(const fleet::FleetParams& params) : params_(params) {}

  std::shared_ptr<server::Site> site(int index) {
    auto& slot = sites_[index];
    if (!slot) slot = workload::generate_site(site_params(params_, index));
    return slot;
  }

 private:
  const fleet::FleetParams& params_;
  std::map<int, std::shared_ptr<server::Site>> sites_;
};

/// The testbed Shard gives one user for one strategy arm.
core::Testbed user_testbed(const fleet::FleetParams& p,
                           const std::shared_ptr<server::Site>& site,
                           const fleet::UserProfile& user,
                           core::StrategyKind kind, edge::EdgePop* pop) {
  core::StrategyOptions o = p.options;
  o.mobile_client = user.mobile_client;
  o.edge_pop = pop;
  if (pop != nullptr) o.edge_origin_rtt = p.edge.origin_rtt;
  netsim::NetworkConditions c = fleet::conditions_for(user.tier);
  c.faults = p.faults;
  c.faults.stream = user.user_id;
  return core::make_testbed(site, c, kind, o);
}

std::unique_ptr<edge::EdgePop> probe_pop(const fleet::FleetParams& p) {
  if (!p.edge.enabled()) return nullptr;
  return std::make_unique<edge::EdgePop>(pop_config(p, 0));
}

}  // namespace

ShardProbe probe_shards(const fleet::FleetParams& params,
                        std::uint64_t users) {
  std::vector<fleet::FleetReport> reports;
  std::vector<double> cpu;
  for (const fleet::ShardTask& task : shard_tasks(params, users)) {
    const double c0 = thread_cpu_s();
    reports.push_back(fleet::Shard(params, task).run());
    cpu.push_back(thread_cpu_s() - c0);
  }
  ShardProbe out;
  double sum = 0.0;
  for (const double c : cpu) sum += c;
  out.cpu_max_over_mean =
      ratio(*std::max_element(cpu.begin(), cpu.end()),
            sum / static_cast<double>(cpu.size()));

  fleet::FleetReport merged;
  const double m0 = wall_s();
  for (const fleet::FleetReport& r : reports) merged.merge(r);
  out.merge_us = (wall_s() - m0) * 1e6 / static_cast<double>(reports.size());

  const double s0 = wall_s();
  out.serialized = merged.serialize();
  out.serialize_ms = (wall_s() - s0) * 1e3;
  return out;
}

VisitProbe probe_visits(const std::vector<fleet::FleetParams>& cohorts,
                        std::uint64_t users_per_cohort) {
  double testbed_s = 0.0, cold_s = 0.0, revisit_s = 0.0, decorate_s = 0.0;
  std::uint64_t testbeds = 0, colds = 0, revisits = 0, decorates = 0;
  std::uint64_t treat_revisits = 0, treat_rtts = 0;
  std::uint64_t memo_hits = 0, scans = 0, maps = 0, map_bytes = 0;
  VisitProbe out;

  for (const fleet::FleetParams& p : cohorts) {
    Catalog catalog(p);
    const auto treat_pop = probe_pop(p);
    const auto base_pop = probe_pop(p);
    const std::uint64_t n = std::min(kProbeUsers, users_per_cohort);
    for (std::uint64_t id = 0; id < n; ++id) {
      const fleet::UserProfile user =
          fleet::make_user_profile(p.user_model, id);
      const auto site = catalog.site(user.site_index);
      for (const bool treat : {true, false}) {
        const double t0 = wall_s();
        core::Testbed tb =
            user_testbed(p, site, user, treat ? p.strategy : p.baseline,
                         treat ? treat_pop.get() : base_pop.get());
        testbed_s += wall_s() - t0;
        ++testbeds;
        for (std::size_t i = 0; i < user.visits.size(); ++i) {
          const double v0 = wall_s();
          const client::PageLoadResult r = core::run_visit(tb, user.visits[i]);
          const double dt = wall_s() - v0;
          if (i == 0) {
            cold_s += dt;
            ++colds;
            continue;
          }
          revisit_s += dt;
          ++revisits;
          if (r.from_network + r.from_cache + r.not_modified +
                  r.from_sw_cache + r.from_push !=
              r.resources_total) {
            ++out.outcome_mismatches;
          }
          if (treat) {
            ++treat_revisits;
            treat_rtts += r.rtts;
          }
        }
        if (const auto* s = tb.origin->catalyst_stats(); treat && s) {
          memo_hits += s->scan_memo_hits;
          scans += s->scans_performed;
          maps += s->maps_built;
          map_bytes += s->map_header_bytes;
        }
      }

      // The origin's decorate_html on this user's serve sequence: one
      // base-HTML serve per visit, through a module of the probe's own.
      const server::Resource* html = site->find(site->index_path());
      if (html == nullptr) continue;
      server::CatalystModule module(*site, server::CatalystConfig{});
      const http::Request request =
          http::Request::get(site->index_path(), site->host());
      for (const TimePoint at : user.visits) {
        http::Response response = http::Response::make(http::Status::Ok);
        response.body = html->content_at(at);
        const double d0 = wall_s();
        module.decorate_html(request, response, *html, at, {});
        decorate_s += wall_s() - d0;
        ++decorates;
      }
    }
  }

  const auto per = [](double s, std::uint64_t n) {
    return ratio(s, static_cast<double>(n));
  };
  out.make_testbed_us = per(testbed_s, testbeds) * 1e6;
  out.visit_ms_cold = per(cold_s, colds) * 1e3;
  out.visit_ms_revisit = per(revisit_s, revisits) * 1e3;
  out.rtts_per_revisit =
      per(static_cast<double>(treat_rtts), treat_revisits);
  out.decorate_html_us = per(decorate_s, decorates) * 1e6;
  out.scan_memo_hit_ratio =
      per(static_cast<double>(memo_hits), memo_hits + scans);
  out.map_header_bytes_per_html = per(static_cast<double>(map_bytes), maps);
  return out;
}

double probe_live_testbed_kib(
    const std::vector<fleet::FleetParams>& cohorts) {
  // Warm every catalog site the probe touches first, so the delta holds
  // testbeds, not the shared sites' lazily generated content.
  std::vector<std::unique_ptr<Catalog>> catalogs;
  std::vector<std::pair<std::size_t, fleet::UserProfile>> users;
  for (std::size_t i = 0; i < kLiveTestbeds; ++i) {
    const std::size_t c = i % cohorts.size();
    if (catalogs.size() <= c) {
      catalogs.push_back(std::make_unique<Catalog>(cohorts[c]));
    }
    users.emplace_back(c, fleet::make_user_profile(cohorts[c].user_model,
                                                   i / cohorts.size()));
  }
  {
    std::vector<core::Testbed> warm;
    warm.reserve(users.size());
    for (const auto& [c, user] : users) {
      warm.push_back(user_testbed(cohorts[c],
                                  catalogs[c]->site(user.site_index), user,
                                  cohorts[c].strategy, nullptr));
      core::run_visit(warm.back(), user.visits.front());
    }
  }

  const auto pop = probe_pop(cohorts.front());
  std::vector<core::Testbed> live;
  live.reserve(users.size());
  malloc_trim(0);
  const std::uint64_t before = current_rss_bytes();
  for (const auto& [c, user] : users) {
    live.push_back(user_testbed(cohorts[c],
                                catalogs[c]->site(user.site_index), user,
                                cohorts[c].strategy, pop.get()));
    core::run_visit(live.back(), user.visits.front());
  }
  const std::uint64_t after = current_rss_bytes();
  const double delta = after > before ? static_cast<double>(after - before)
                                      : 0.0;
  return delta / 1024.0 / static_cast<double>(live.size());
}

ParkProbe probe_parking(const std::vector<fleet::FleetParams>& cohorts) {
  double park_s = 0.0, revive_s = 0.0, blob_bytes = 0.0;
  std::uint64_t parks = 0;
  ParkProbe out;
  for (const fleet::FleetParams& p : cohorts) {
    Catalog catalog(p);
    for (std::uint64_t id = 0; id < kProbeUsers; ++id) {
      const fleet::UserProfile user =
          fleet::make_user_profile(p.user_model, id);
      const auto site = catalog.site(user.site_index);
      // Parked blobs carry client state only; PoP state stays shared, so
      // the pair is built without an edge tier.
      core::Testbed treat =
          user_testbed(p, site, user, p.strategy, nullptr);
      core::Testbed base = user_testbed(p, site, user, p.baseline, nullptr);
      core::run_visit(treat, user.visits.front());
      core::run_visit(base, user.visits.front());
      const std::uint64_t treat_stragglers = treat.loop->run();
      const std::uint64_t base_stragglers = base.loop->run();

      const double p0 = wall_s();
      const std::string blob = fleet::park_user(
          user.user_id, treat, treat_stragglers, &base, base_stragglers);
      park_s += wall_s() - p0;
      blob_bytes += static_cast<double>(blob.size());
      ++parks;

      core::Testbed treat2 = user_testbed(p, site, user, p.strategy, nullptr);
      core::Testbed base2 = user_testbed(p, site, user, p.baseline, nullptr);
      const double r0 = wall_s();
      const fleet::ReviveResult revived =
          fleet::revive_user(blob, user.user_id, treat2, &base2);
      revive_s += wall_s() - r0;
      if (revived.status != fleet::ReviveStatus::Ok) ++out.corrupt_revivals;
    }
  }
  const double n = static_cast<double>(parks);
  out.park_us = ratio(park_s, n) * 1e6;
  out.revive_us = ratio(revive_s, n) * 1e6;
  out.parked_kib_per_user = ratio(blob_bytes, n) / 1024.0;
  return out;
}

double probe_user_profile_us(const std::vector<fleet::FleetParams>& cohorts,
                             std::uint64_t users_per_cohort) {
  constexpr int kRounds = 5;
  std::uint64_t calls = 0;
  const double t0 = wall_s();
  for (int round = 0; round < kRounds; ++round) {
    for (const fleet::FleetParams& p : cohorts) {
      for (std::uint64_t id = 0; id < users_per_cohort; ++id) {
        fleet::make_user_profile(p.user_model, id);
        ++calls;
      }
    }
  }
  return ratio(wall_s() - t0, static_cast<double>(calls)) * 1e6;
}

}  // namespace perfbench
