// engine_hotpath — machine-readable micro+macro benchmark of the
// simulation engine's hot path.
//
//   engine_hotpath [--smoke] [--out FILE] [--baseline FILE] [--users N]
//
// Micro section: ns/op for the structures the hot path runs on — string
// interning, open-addressing map lookups, the pooled event loop, slab
// pool cycling, batched Zipf draws, the memoized body digest, and SHA-1
// content-ETag throughput with the compression kernel this CPU selected
// ("sha-ni" or "portable": a runner without the SHA extensions reads
// several times slower there, and the JSON says why).
//
// Macro section: a fleet replay through the full engine (faults + edge
// tier on, catalyst vs baseline arms, the fleetsim reference shape) and
// its engine events/sec — the number the optimization work is gated on.
//
// --smoke       shrink the macro fleet for CI (seconds, not minutes)
// --out FILE    write the results as JSON (BENCH_hotpath.json schema)
// --baseline F  compare against a previous --out file: exit 1 when macro
//               events/sec drops below min_ratio (default 0.8) of the
//               baseline — the CI perf gate
// --users N     explicit macro fleet size (overrides --smoke default)
// --h2          run the macro fleet with HTTP/2 browsers (one multiplexed
//               connection per origin instead of six H1 connections);
//               tags the JSON with "h2":true so H2 numbers are never
//               compared against the H1 baseline
// --self-profile  enable the obs wall-clock subsystem timers; adds a
//               "self_profile" JSON section and a stderr table
// --overhead-gate  run the macro fleet with the phase breakdown off vs
//               on (best of 2 each) and exit 1 when breakdown-on drops
//               below overhead_ratio (default 0.97) of breakdown-off —
//               the observability overhead gate
//
// Timing numbers are hardware-dependent; baselines only make sense
// against runs on comparable machines (see BENCHMARKS.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/runner.h"
#include "http/etag.h"
#include "netsim/event_loop.h"
#include "obs/selfprof.h"
#include "util/flat_hash.h"
#include "util/hash.h"
#include "util/intern.h"
#include "util/json.h"
#include "util/pool.h"
#include "util/strings.h"
#include "workload/distributions.h"

using namespace catalyst;

namespace {

/// Keeps `value` observable so timed loops are not optimized away.
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median-of-3 ns/op for `op` run `iters` times per rep.
template <class Fn>
double bench_ns(std::size_t iters, Fn&& op) {
  double best = 0.0;
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < iters; ++i) op(i);
    reps.push_back((now_s() - t0) * 1e9 / static_cast<double>(iters));
  }
  // median
  std::sort(reps.begin(), reps.end());
  best = reps[1];
  return best;
}

double bench_intern_hit(std::size_t iters) {
  InternTable table;
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back("/assets/chunk-" + std::to_string(i) + ".js");
    table.intern(keys.back());
  }
  return bench_ns(iters, [&](std::size_t i) {
    keep(table.intern(keys[i & 4095]));  // warm-hit path
  });
}

double bench_flat_hash_lookup(std::size_t iters) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t k = 0; k < 4096; ++k) map.insert_or_assign(k * 7, k);
  return bench_ns(iters, [&](std::size_t i) {
    keep(map.find((i & 4095) * 7));
  });
}

double bench_event_loop(std::size_t iters) {
  netsim::EventLoop loop;
  std::uint64_t counter = 0;
  // Schedule/run in batches: mirrors the request/response cascades the
  // engine generates (every event may enqueue more).
  const std::size_t batch = 64;
  return bench_ns(iters / batch, [&](std::size_t) {
    for (std::size_t j = 0; j < batch; ++j) {
      loop.schedule_after(milliseconds(static_cast<int>(j & 7)),
                          [&counter] { ++counter; });
    }
    keep(loop.run());
  }) / static_cast<double>(batch);
}

double bench_pool_cycle(std::size_t iters) {
  SlabPool<std::vector<std::uint8_t>> pool;
  return bench_ns(iters, [&](std::size_t) {
    const auto h = pool.acquire();
    keep(*pool.get(h));
    pool.release(h);
  });
}

double bench_zipf_draw(std::size_t iters) {
  Rng rng(2024);
  return bench_ns(iters, [&](std::size_t) {
    keep(workload::draw_zipf_rank(40, 0.9, rng));
  });
}

double bench_digest_memo(std::size_t iters) {
  http::Response response;
  response.body = std::string(30'000, 'x');
  keep(response.body_digest());  // cold digest paid once here
  return bench_ns(iters, [&](std::size_t) {
    keep(response.body_digest());  // memo hit — the steady-state path
  });
}

/// MB/s (10^6 bytes) of http::make_content_etag over 16 KiB bodies, about
/// the size of an average generated resource.
double bench_sha1_mb_per_s(std::size_t iters) {
  std::string body(16 << 10, '\0');
  Rng rng(16);
  for (char& c : body) c = static_cast<char>(rng.next_u64());
  const double ns = bench_ns(iters, [&](std::size_t) {
    keep(http::make_content_etag(body));
  });
  return static_cast<double>(body.size()) / ns * 1e3;
}

struct MacroResult {
  std::uint64_t users = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double users_per_sec = 0.0;
  obs::ProfCounters prof;  // merged shard self-profile counters
};

/// Fleet replay shaped like the fleetsim reference config (faults + edge
/// on, catalyst vs baseline), scaled down by --smoke. `h2` swaps the
/// browsers' transport from six H1 connections to one multiplexed H2
/// connection per origin (the --h2 ablation axis).
MacroResult run_macro(std::uint64_t users, int threads, bool breakdown,
                      bool h2 = false) {
  fleet::FleetParams params;
  params.strategy = core::StrategyKind::Catalyst;
  params.baseline = core::StrategyKind::Baseline;
  params.shard_size = 256;
  params.user_model.master_seed = 2024;
  params.user_model.sitegen_seed = 2024;
  params.faults.loss_rate = 0.01;
  params.faults.stall_rate = 0.0025;
  params.faults.fault_seed = 2024;
  params.edge.pops = 4;
  params.breakdown = breakdown;
  if (h2) params.options.browser_protocol = netsim::Protocol::H2;

  fleet::FleetRunner runner(params, users, threads);
  const double t0 = now_s();
  const fleet::FleetReport report = runner.run();
  const double wall = now_s() - t0;

  MacroResult r;
  r.users = users;
  r.events = report.events_executed;
  r.wall_s = wall;
  r.events_per_sec =
      wall > 0 ? static_cast<double>(report.events_executed) / wall : 0.0;
  r.users_per_sec = wall > 0 ? static_cast<double>(users) / wall : 0.0;
  r.prof = report.prof;
  return r;
}

Json to_json(bool smoke, const Json& micro, const MacroResult& macro) {
  Json macro_json = Json::object();
  macro_json.set("users", Json::number(static_cast<double>(macro.users)));
  macro_json.set("events", Json::number(static_cast<double>(macro.events)));
  macro_json.set("wall_s", Json::number(macro.wall_s));
  macro_json.set("events_per_sec", Json::number(macro.events_per_sec));
  macro_json.set("users_per_sec", Json::number(macro.users_per_sec));

  Json out = Json::object();
  out.set("schema", Json::string("catalyst-hotpath-v1"));
  out.set("smoke", Json::boolean(smoke));
  out.set("micro", micro);
  out.set("macro", std::move(macro_json));
  return out;
}

/// Loads the macro events/sec recorded in a previous --out file.
double baseline_events_per_sec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "engine_hotpath: cannot open baseline %s\n",
                 path.c_str());
    return -1.0;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto json = Json::parse(buffer.str());
  if (!json || !json->is_object()) {
    std::fprintf(stderr, "engine_hotpath: malformed baseline %s\n",
                 path.c_str());
    return -1.0;
  }
  // Accept both a previous --out file ({"macro":{"events_per_sec":...}})
  // and the checked-in baseline pair ({"gate":{"events_per_sec":...}}).
  for (const char* section : {"gate", "macro"}) {
    if (const Json* s = json->find(section)) {
      if (const Json* v = s->find("events_per_sec")) {
        if (v->is_number()) return v->as_number();
      }
    }
  }
  std::fprintf(stderr, "engine_hotpath: no events_per_sec in %s\n",
               path.c_str());
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool self_profile = false;
  bool overhead_gate = false;
  bool h2 = false;
  std::string out_path;
  std::string baseline_path;
  std::uint64_t users = 0;
  double min_ratio = 0.8;
  double overhead_ratio = 0.97;  // breakdown-on must keep 97% throughput
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--self-profile") {
      self_profile = true;
    } else if (arg == "--overhead-gate") {
      overhead_gate = true;
    } else if (arg == "--h2") {
      h2 = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--users" && i + 1 < argc) {
      users = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--min-ratio" && i + 1 < argc) {
      min_ratio = std::atof(argv[++i]);
    } else if (arg == "--overhead-ratio" && i + 1 < argc) {
      overhead_ratio = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: engine_hotpath [--smoke] [--out FILE]\n"
                   "                      [--baseline FILE] [--users N]\n"
                   "                      [--min-ratio R] [--self-profile]\n"
                   "                      [--h2] [--overhead-gate]\n"
                   "                      [--overhead-ratio R]\n");
      return 2;
    }
  }
  if (users == 0) users = smoke ? 200 : 1000;
  obs::set_timing(self_profile);

  if (overhead_gate) {
    // Observability overhead gate: the same macro fleet with the phase
    // breakdown off vs on. Interleaved best-of-2 per arm so one noisy
    // CI neighbour can't fail (or pass) the gate by itself.
    double best_off = 0.0;
    double best_on = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      best_off = std::max(
          best_off, run_macro(users, /*threads=*/8, false).events_per_sec);
      best_on = std::max(
          best_on, run_macro(users, /*threads=*/8, true).events_per_sec);
    }
    const double ratio = best_off > 0.0 ? best_on / best_off : 0.0;
    std::fprintf(stderr,
                 "engine_hotpath: overhead gate: breakdown off %.0f, "
                 "on %.0f events/sec (%.3fx, gate %.2fx)\n",
                 best_off, best_on, ratio, overhead_ratio);
    if (ratio < overhead_ratio) {
      std::fprintf(stderr,
                   "engine_hotpath: FAIL — --breakdown costs more than "
                   "%.0f%% of macro throughput\n",
                   (1.0 - overhead_ratio) * 100.0);
      return 1;
    }
    std::fprintf(stderr, "engine_hotpath: PASS overhead gate\n");
    return 0;
  }

  const std::size_t iters = smoke ? 200'000 : 2'000'000;
  Json micro = Json::object();
  micro.set("intern_hit_ns", Json::number(bench_intern_hit(iters)));
  micro.set("flat_hash_lookup_ns",
            Json::number(bench_flat_hash_lookup(iters)));
  micro.set("event_loop_ns_per_event",
            Json::number(bench_event_loop(iters)));
  micro.set("pool_cycle_ns", Json::number(bench_pool_cycle(iters)));
  micro.set("zipf_draw_ns", Json::number(bench_zipf_draw(iters / 10)));
  micro.set("digest_memo_hit_ns", Json::number(bench_digest_memo(iters)));
  micro.set("sha1_mb_per_s", Json::number(bench_sha1_mb_per_s(iters / 200)));
  micro.set("sha1_kernel", Json::string(Sha1::kernel_name()));

  std::fprintf(stderr, "engine_hotpath: macro fleet %llu users%s...\n",
               static_cast<unsigned long long>(users), h2 ? " (h2)" : "");
  const MacroResult macro = run_macro(users, /*threads=*/8,
                                      /*breakdown=*/false, h2);

  Json result = to_json(smoke, micro, macro);
  // Mark H2 runs so their numbers are never mistaken for (or gated
  // against) the H1 baseline; the default schema stays unchanged.
  if (h2) result.set("h2", Json::boolean(true));
  if (self_profile) {
    // Wall-clock numbers: useful to a human reading this run's JSON,
    // never compared against baselines.
    result.set("self_profile", macro.prof.to_json(macro.wall_s));
  }
  const std::string dump = result.dump();
  std::printf("%s\n", dump.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "engine_hotpath: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    out << dump << "\n";
    std::fprintf(stderr, "engine_hotpath: wrote %s\n", out_path.c_str());
  }

  std::fprintf(stderr,
               "engine_hotpath: macro %.2f s wall, %.0f events/sec, "
               "%.1f users/sec\n",
               macro.wall_s, macro.events_per_sec, macro.users_per_sec);
  if (self_profile) {
    std::fprintf(stderr, "%s", macro.prof.render_table(macro.wall_s).c_str());
  }

  if (!baseline_path.empty()) {
    const double base = baseline_events_per_sec(baseline_path);
    if (base <= 0.0) return 1;
    const double ratio = macro.events_per_sec / base;
    std::fprintf(stderr,
                 "engine_hotpath: %.0f vs baseline %.0f events/sec "
                 "(%.2fx, gate %.2fx)\n",
                 macro.events_per_sec, base, ratio, min_ratio);
    if (ratio < min_ratio) {
      std::fprintf(stderr,
                   "engine_hotpath: FAIL — macro throughput regressed "
                   "more than %.0f%% below baseline\n",
                   (1.0 - min_ratio) * 100.0);
      return 1;
    }
    std::fprintf(stderr, "engine_hotpath: PASS perf gate\n");
  }
  return 0;
}
