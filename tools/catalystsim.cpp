// catalystsim — command-line driver for the simulation library.
//
//   catalystsim site     --index N [--seed S] [--clone] [--third-party F]
//   catalystsim run      --index N --strategy S [--rtt MS] [--mbps M]
//                        [--delay-hours H] [--seed S] [--clone]
//                        [--third-party F]
//   catalystsim sweep    --sites N [--rtt MS] [--mbps M] [--seed S]
//                        [--clone] [--third-party F]
//   catalystsim fig1
//
// Each subcommand rejects flags it does not read (usage, exit 2).
//
// Strategies: baseline catalyst catalyst+learn push-all push-learned
//             push-digest early-hints rdr-proxy oracle
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "args.h"
#include "core/experiment.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/sitegen.h"

using namespace catalyst;

namespace {

std::optional<core::StrategyKind> parse_strategy(const std::string& name) {
  using core::StrategyKind;
  static const std::map<std::string, StrategyKind> kMap = {
      {"baseline", StrategyKind::Baseline},
      {"catalyst", StrategyKind::Catalyst},
      {"catalyst+learn", StrategyKind::CatalystLearned},
      {"push-all", StrategyKind::PushAll},
      {"push-learned", StrategyKind::PushLearned},
      {"push-digest", StrategyKind::PushDigest},
      {"early-hints", StrategyKind::EarlyHints},
      {"rdr-proxy", StrategyKind::RdrProxy},
      {"oracle", StrategyKind::Oracle},
  };
  const auto it = kMap.find(name);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

workload::SitegenParams params_from(const tools::Args& args) {
  workload::SitegenParams p;
  p.seed = static_cast<std::uint64_t>(args.num("seed", 2024));
  p.site_index = static_cast<int>(args.num("index", 0));
  p.clone_static_snapshot = args.has("clone");
  p.third_party_fraction = args.num("third-party", 0.0);
  return p;
}

netsim::NetworkConditions conditions_from(const tools::Args& args) {
  netsim::NetworkConditions c = netsim::NetworkConditions::median_5g();
  c.rtt = milliseconds_f(args.num("rtt", 40));
  c.downlink = mbps(args.num("mbps", 60));
  c.uplink = mbps(args.num("mbps", 60) / 5.0);
  return c;
}

int cmd_site(const tools::Args& args) {
  const auto bundle = workload::generate_site_bundle(params_from(args));
  Table table(str_format("%s — %zu resources, %s (+%zu third-party "
                         "origins)",
                         bundle.main->host().c_str(),
                         bundle.main->resource_count(),
                         format_bytes(bundle.main->total_bytes()).c_str(),
                         bundle.third_party.size()));
  table.set_header({"path", "class", "size", "cache-control",
                    "changes (30d)"});
  auto add_site = [&table](const server::Site& site) {
    for (const auto& [path, r] : site.resources()) {
      table.add_row(
          {site.host() == "" ? path : path,
           std::string(http::class_label(r->resource_class())),
           format_bytes(r->wire_size()),
           r->cache_policy().to_string().empty()
               ? "(none)"
               : r->cache_policy().to_string(),
           std::to_string(r->changes().total_changes())});
    }
  };
  add_site(*bundle.main);
  for (const auto& tp : bundle.third_party) {
    table.add_separator();
    add_site(*tp);
  }
  table.print();
  return 0;
}

int cmd_run(const tools::Args& args) {
  const auto kind = parse_strategy(args.get("strategy", "catalyst"));
  if (!kind) {
    std::fprintf(stderr, "unknown strategy\n");
    return 2;
  }
  const auto bundle = workload::generate_site_bundle(params_from(args));
  const auto conditions = conditions_from(args);
  const Duration delay = hours(
      static_cast<std::int64_t>(args.num("delay-hours", 6)));

  auto tb = core::make_testbed(bundle, conditions, *kind);
  std::printf("%s on %s at %s, revisit after %s\n\n",
              std::string(core::to_string(*kind)).c_str(),
              bundle.main->host().c_str(), conditions.label().c_str(),
              format_duration(delay).c_str());
  const auto cold = core::run_visit(tb, TimePoint{});
  std::printf("cold load: PLT %.1f ms, FCP %.1f ms, %s down, %u RTTs\n",
              to_millis(cold.plt()), to_millis(cold.fcp()),
              format_bytes(cold.bytes_downloaded).c_str(), cold.rtts);
  const auto revisit = core::run_visit(tb, TimePoint{} + delay);
  std::printf(
      "revisit:   PLT %.1f ms, FCP %.1f ms, %s down, %u RTTs "
      "(%u net, %u cache, %u 304, %u sw, %u push, %u stale)\n\n",
      to_millis(revisit.plt()), to_millis(revisit.fcp()),
      format_bytes(revisit.bytes_downloaded).c_str(), revisit.rtts,
      revisit.from_network, revisit.from_cache, revisit.not_modified,
      revisit.from_sw_cache, revisit.from_push, revisit.stale_served);
  std::printf("%s", revisit.trace.render_waterfall(56).c_str());
  return 0;
}

int cmd_sweep(const tools::Args& args) {
  const int n = static_cast<int>(args.num("sites", 20));
  const auto conditions = conditions_from(args);
  std::vector<std::shared_ptr<server::Site>> sites;
  for (int i = 0; i < n; ++i) {
    workload::SitegenParams p = params_from(args);
    p.site_index = i;
    sites.push_back(workload::generate_site(p));
  }
  const Summary s = core::plt_reduction_summary(
      sites, conditions, core::StrategyKind::Catalyst,
      core::StrategyKind::Baseline, core::paper_revisit_delays());
  std::printf(
      "catalyst vs baseline at %s over %d sites x 5 delays:\n"
      "  mean %+.1f%%  median %+.1f%%  p10 %+.1f%%  p90 %+.1f%%  "
      "(95%% CI ±%.1f)\n",
      conditions.label().c_str(), n, s.mean(), s.median(),
      s.percentile(10), s.percentile(90), s.ci95_halfwidth());
  return 0;
}

int cmd_fig1() {
  const auto conditions = netsim::NetworkConditions::median_5g();
  for (const auto kind :
       {core::StrategyKind::Baseline, core::StrategyKind::Catalyst}) {
    auto tb = core::make_testbed(workload::make_figure1_site(), conditions,
                                 kind);
    const auto cold = core::run_visit(tb, TimePoint{});
    const auto revisit = core::run_visit(tb, TimePoint{} + hours(2));
    std::printf("== %s: cold %.1f ms, revisit +2h %.1f ms ==\n%s\n",
                std::string(core::to_string(kind)).c_str(),
                to_millis(cold.plt()), to_millis(revisit.plt()),
                revisit.trace.render_waterfall().c_str());
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: catalystsim <site|run|sweep|fig1> [--flags]\n"
      "  site  --index N [--seed S] [--clone] [--third-party F]\n"
      "  run   --index N --strategy S [--rtt MS] [--mbps M]\n"
      "        [--delay-hours H] [--seed S] [--clone] [--third-party F]\n"
      "  sweep --sites N [--rtt MS] [--mbps M] [--seed S] [--clone]\n"
      "        [--third-party F]\n"
      "  fig1\n"
      "Unknown flags print this text and exit 2.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "site") {
    return cmd_site(tools::Args(argc, argv, 2,
                                {"index", "seed", "clone", "third-party"},
                                usage));
  }
  if (cmd == "run") {
    return cmd_run(tools::Args(argc, argv, 2,
                               {"index", "seed", "clone", "third-party",
                                "strategy", "rtt", "mbps", "delay-hours"},
                               usage));
  }
  if (cmd == "sweep") {
    return cmd_sweep(tools::Args(
        argc, argv, 2,
        {"sites", "seed", "clone", "third-party", "rtt", "mbps"}, usage));
  }
  if (cmd == "fig1") {
    const tools::Args none(argc, argv, 2, {}, usage);
    return cmd_fig1();
  }
  usage();
  return 2;
}
