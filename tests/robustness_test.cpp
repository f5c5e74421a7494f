// Failure injection: the system must degrade gracefully, never hang, and
// never serve wrong bytes — under missing resources, hostile headers and
// cache-capacity pressure.
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "client/browser.h"
#include "core/experiment.h"
#include "html/generate.h"
#include "util/hash.h"
#include "workload/sitegen.h"

namespace catalyst {
namespace {

using core::StrategyKind;

std::shared_ptr<server::Site> site_with_dangling_links() {
  auto site = std::make_shared<server::Site>("broken.example");
  site->add_resource(std::make_unique<server::Resource>(
      "/index.html", http::ResourceClass::Html, 0,
      [](std::uint64_t) {
        html::HtmlBuilder page("broken");
        page.add_stylesheet("/exists.css");
        page.add_stylesheet("/missing.css");   // 404
        page.add_image("/gone.webp");          // 404
        page.add_script("/no-such.js");        // 404, parser-blocking
        return page.build();
      },
      server::ChangeProcess::never(),
      http::CacheControl::revalidate_always()));
  site->add_resource(std::make_unique<server::Resource>(
      "/exists.css", http::ResourceClass::Css, 2048,
      [](std::uint64_t v) { return html::make_css({}, {}, {}, 2048, v); },
      server::ChangeProcess::never(),
      http::CacheControl::with_max_age(hours(1))));
  return site;
}

TEST(RobustnessTest, DanglingLinksComplete) {
  auto tb = core::make_testbed(site_with_dangling_links(),
                               netsim::NetworkConditions::median_5g(),
                               StrategyKind::Baseline);
  const auto result = core::run_visit(tb, TimePoint{});
  EXPECT_EQ(result.resources_total, 5u);  // html + 4 subresources
  EXPECT_GT(result.plt(), Duration::zero());
  // 404s are not cached (no validators/freshness on our 404s).
  EXPECT_FALSE(
      tb.browser->http_cache().contains("https://broken.example/gone.webp"));
}

TEST(RobustnessTest, DanglingLinksUnderCatalyst) {
  auto tb = core::make_testbed(site_with_dangling_links(),
                               netsim::NetworkConditions::median_5g(),
                               StrategyKind::Catalyst);
  (void)core::run_visit(tb, TimePoint{});
  const auto revisit = core::run_visit(tb, TimePoint{} + hours(1));
  EXPECT_EQ(revisit.resources_total, 5u);
  // The one real resource is served by the SW; the 404s re-fetch.
  EXPECT_EQ(revisit.from_sw_cache, 1u);
}

TEST(RobustnessTest, MalformedEtagConfigHeaderIsIgnored) {
  // A buggy/hostile origin sends garbage in X-Etag-Config: the Service
  // Worker must keep working as a transparent proxy.
  netsim::EventLoop loop;
  netsim::Network net(loop);
  net.add_host("client");
  net.add_host("evil.example");
  net.set_rtt("client", "evil.example", milliseconds(20));
  net.host("evil.example")
      .set_handler([&](const http::Request& req, auto respond) {
        netsim::ServerReply reply;
        reply.response = http::Response::make(http::Status::Ok);
        if (req.target == "/index.html") {
          html::HtmlBuilder page("evil");
          page.add_stylesheet("/a.css");
          reply.response.body = page.build();
          reply.response.headers.set(http::kXEtagConfig,
                                     "{{{{not json at all");
          reply.response.headers.set(http::kContentType, "text/html");
        } else {
          reply.response.body = "css";
          reply.response.headers.set(
              http::kEtagHeader,
              http::make_content_etag("css").to_string());
        }
        reply.response.finalize(loop.now());
        respond(std::move(reply));
      });

  client::BrowserConfig bc;
  bc.service_workers_enabled = true;
  client::Browser browser(net, bc);
  // Pre-register a worker with an (empty) state for the origin.
  browser.register_service_worker("evil.example", {});

  bool done = false;
  browser.load_page(*Url::parse("https://evil.example/index.html"),
                    [&](client::PageLoadResult result) {
                      done = true;
                      EXPECT_EQ(result.resources_total, 2u);
                    });
  loop.run();
  EXPECT_TRUE(done);
  // The malformed map was rejected; no map installed.
  EXPECT_EQ(browser.service_worker("evil.example").current_map(), nullptr);
}

TEST(RobustnessTest, TinyHttpCacheEvictsButStaysCorrect) {
  workload::SitegenParams params;
  params.seed = 31;
  params.site_index = 0;
  auto site = workload::generate_site(params);

  auto tb = core::make_testbed(site, netsim::NetworkConditions::median_5g(),
                               StrategyKind::Baseline);
  // Shrink the cache far below the page weight by replacing the browser.
  client::BrowserConfig bc;
  bc.http_cache_capacity = KiB(64);
  tb.browser = std::make_unique<client::Browser>(*tb.network, bc);

  (void)core::run_visit(tb, TimePoint{});
  const auto revisit = core::run_visit(tb, TimePoint{} + minutes(1));
  // Mostly evicted: the revisit re-downloads most bytes, but completes.
  EXPECT_GT(revisit.from_network, revisit.resources_total / 2);
  EXPECT_GT(tb.browser->http_cache().stats().misses, 0u);
}

TEST(RobustnessTest, TinySwCacheFallsBackToRevalidation) {
  workload::SitegenParams params;
  params.seed = 32;
  params.site_index = 1;
  params.clone_static_snapshot = true;
  auto site = workload::generate_site(params);

  auto tb = core::make_testbed(site, netsim::NetworkConditions::median_5g(),
                               StrategyKind::Catalyst);
  client::BrowserConfig bc;
  bc.service_workers_enabled = true;
  bc.sw_cache_capacity = KiB(32);  // holds almost nothing
  tb.browser = std::make_unique<client::Browser>(*tb.network, bc);

  (void)core::run_visit(tb, TimePoint{});
  const auto revisit = core::run_visit(tb, TimePoint{} + hours(1));
  // Few/no SW hits, but the page still loads fully and correctly (map-
  // covered-but-evicted resources revalidate).
  EXPECT_LT(revisit.from_sw_cache, 10u);
  EXPECT_EQ(revisit.resources_total,
            core::run_revisit_pair(site,
                                   netsim::NetworkConditions::median_5g(),
                                   StrategyKind::Baseline, hours(1))
                .revisit.resources_total);
}

TEST(RobustnessTest, NoStoreNeverLandsInAnyCache) {
  workload::SitegenParams params;
  params.seed = 33;
  params.site_index = 2;
  auto site = workload::generate_site(params);
  auto tb = core::make_testbed(site, netsim::NetworkConditions::median_5g(),
                               StrategyKind::Catalyst);
  (void)core::run_visit(tb, TimePoint{});
  tb.loop->run();
  for (const auto& [path, resource] : site->resources()) {
    if (!resource->cache_policy().no_store) continue;
    const std::string url = "https://" + site->host() + path;
    EXPECT_FALSE(tb.browser->http_cache().contains(url)) << path;
    EXPECT_FALSE(
        tb.browser->service_worker(site->host()).cache().contains(path))
        << path;
  }
}

/// A hand-scripted Catalyst origin whose X-Etag-Config the test controls:
/// the map can be omitted, list extra paths, or go stale relative to the
/// content — the degradation scenarios a real CDN tier produces.
class CatalystDegradationFixture : public ::testing::Test {
 protected:
  static constexpr const char* kHost = "degraded.example";

  CatalystDegradationFixture() : net_(loop_) {
    net_.add_host("client");
    net_.add_host(kHost);
    net_.set_rtt("client", kHost, milliseconds(20));
    net_.host(kHost).set_handler(
        [this](const http::Request& req, auto respond) {
          respond(handle(req));
        });
    client::BrowserConfig bc;
    bc.service_workers_enabled = true;
    browser_ = std::make_unique<client::Browser>(net_, bc);
    browser_->register_service_worker(kHost, {});
  }

  netsim::ServerReply handle(const http::Request& req) {
    ++requests_[req.target];
    netsim::ServerReply reply;
    if (req.target == "/index.html") {
      html::HtmlBuilder page("degraded");
      page.add_stylesheet("/a.css");
      page.add_image("/b.webp");
      reply.response = http::Response::make(http::Status::Ok);
      reply.response.body = page.build();
      reply.response.headers.set(http::kContentType, "text/html");
      if (malformed_map_) {
        reply.response.headers.set(http::kXEtagConfig,
                                   "%%%not-a-map%%%");
      } else if (send_map_) {
        http::EtagConfig map;
        map.add("/a.css", http::make_content_etag(css_body_));
        map.add("/b.webp", http::make_content_etag(webp_body_));
        for (const auto& [path, etag] : extra_map_entries_) {
          map.add(path, etag);
        }
        reply.response.headers.set(http::kXEtagConfig, map.encode());
      }
    } else {
      const std::string& body =
          req.target == "/a.css" ? css_body_ : webp_body_;
      const http::Etag etag = http::make_content_etag(body);
      const auto inm = req.if_none_match();
      if (inm && inm->matches(etag)) {
        reply.response = http::Response::make(http::Status::NotModified);
      } else {
        reply.response = http::Response::make(http::Status::Ok);
        reply.response.body = body;
      }
      reply.response.headers.set(http::kEtagHeader, etag.to_string());
    }
    reply.response.finalize(loop_.now());
    return reply;
  }

  client::PageLoadResult load() {
    std::optional<client::PageLoadResult> result;
    browser_->load_page(
        *Url::parse(std::string("https://") + kHost + "/index.html"),
        [&](client::PageLoadResult r) { result = std::move(r); });
    loop_.run();
    browser_->end_visit();
    EXPECT_TRUE(result.has_value()) << "page load did not complete";
    return std::move(*result);
  }

  client::CatalystServiceWorker& sw() {
    return browser_->service_worker(kHost);
  }

  /// Wires a byte-equivalence oracle against this fixture's scripted
  /// origin: ground truth is whatever the handler would serve right now.
  void attach_oracle(check::ByteOracle& oracle) {
    oracle.add_origin(
        kHost,
        [this](const std::string& path,
               TimePoint) -> std::optional<std::uint64_t> {
          if (path == "/index.html") {
            html::HtmlBuilder page("degraded");
            page.add_stylesheet("/a.css");
            page.add_image("/b.webp");
            return fnv1a64(page.build());
          }
          if (path == "/a.css") return fnv1a64(css_body_);
          if (path == "/b.webp") return fnv1a64(webp_body_);
          return std::nullopt;
        });
    browser_->set_serve_classifier(
        [&oracle](const Url& url, const client::FetchOutcome& outcome) {
          return oracle.classify(url, outcome);
        });
  }

  netsim::EventLoop loop_;
  netsim::Network net_;
  std::unique_ptr<client::Browser> browser_;
  std::map<std::string, int> requests_;
  bool send_map_ = true;
  bool malformed_map_ = false;
  std::string css_body_ = std::string(4096, 'c');
  std::string webp_body_ = std::string(9000, 'w');
  std::vector<std::pair<std::string, http::Etag>> extra_map_entries_;
};

TEST_F(CatalystDegradationFixture, MissingMapEntersDegradedModeThenRecovers) {
  const auto cold = load();
  EXPECT_EQ(cold.resources_total, 3u);
  EXPECT_FALSE(sw().degraded());

  // The origin stops sending X-Etag-Config (stripped by a middlebox, CDN
  // misconfiguration). The previous map's tokens expired with their page
  // load, so the SW must not trust any cached copy: every subresource
  // forwards as a forced conditional GET — and the load still completes
  // with correct bytes (304s against the unchanged origin).
  send_map_ = false;
  const auto degraded = load();
  EXPECT_EQ(degraded.resources_total, 3u);
  EXPECT_TRUE(sw().degraded());
  EXPECT_EQ(sw().stats().maps_missing, 1u);
  EXPECT_EQ(degraded.from_sw_cache, 0u);
  EXPECT_EQ(degraded.fallback_revalidations, 2u);
  EXPECT_EQ(degraded.not_modified, 2u);
  EXPECT_EQ(degraded.failed_loads, 0u);

  // A fresh map clears degraded mode and zero-RTT serving resumes.
  send_map_ = true;
  const auto recovered = load();
  EXPECT_FALSE(sw().degraded());
  EXPECT_EQ(recovered.from_sw_cache, 2u);
  EXPECT_EQ(recovered.fallback_revalidations, 0u);
}

TEST_F(CatalystDegradationFixture, MapEntriesForUnreferencedUrlsAreHarmless) {
  // The map lists a path the page no longer references (stale config
  // pushed ahead of the HTML rollout). It must neither trigger a fetch
  // nor disturb the load.
  extra_map_entries_.emplace_back("/ghost.css",
                                  http::make_content_etag("ghost"));
  const auto cold = load();
  EXPECT_EQ(cold.resources_total, 3u);
  const auto revisit = load();
  EXPECT_EQ(revisit.resources_total, 3u);
  EXPECT_EQ(revisit.from_sw_cache, 2u);
  EXPECT_EQ(requests_["/ghost.css"], 0);
  ASSERT_NE(sw().current_map(), nullptr);
  EXPECT_EQ(sw().current_map()->size(), 3u);
}

TEST_F(CatalystDegradationFixture, MapEtagMismatchRevalidatesToFreshBytes) {
  (void)load();
  // The stylesheet changes on the origin: the new map vouches for bytes
  // the SW does not hold, so the cached copy must NOT be served — the
  // fetch goes to the network and brings back the new version.
  css_body_ = std::string(5000, 'C');
  const auto revisit = load();
  EXPECT_EQ(revisit.resources_total, 3u);
  EXPECT_EQ(revisit.from_sw_cache, 1u);   // the unchanged image
  EXPECT_GE(revisit.from_network, 1u);    // the changed stylesheet
  EXPECT_EQ(revisit.fallback_revalidations, 0u);  // normal op, not fallback
  // The SW cache now holds the fresh bytes, keyed by the new ETag.
  EXPECT_NE(sw().cache().match("/a.css", http::make_content_etag(css_body_)),
            nullptr);
}

TEST_F(CatalystDegradationFixture, CorruptedSwEntryFallsBackToConditionalGet) {
  (void)load();
  // Storage corruption: the stored body no longer matches its digest. The
  // integrity check must catch it at match time — the entry is evicted
  // and the fetch falls back to a conditional GET instead of serving the
  // damaged bytes.
  sw().cache().corrupt("/a.css");
  const auto revisit = load();
  EXPECT_EQ(revisit.resources_total, 3u);
  EXPECT_EQ(sw().cache().stats().integrity_failures, 1u);
  EXPECT_EQ(revisit.fallback_revalidations, 1u);
  EXPECT_EQ(revisit.not_modified, 1u);    // origin confirms the HTTP copy
  EXPECT_EQ(revisit.from_sw_cache, 1u);   // the intact image still serves
  EXPECT_EQ(revisit.failed_loads, 0u);
  EXPECT_FALSE(sw().cache().contains("/a.css"));
}

TEST_F(CatalystDegradationFixture, DegradedModeNeverServesWrongBytes) {
  // The oracle audits every serve while the origin degrades: the map
  // disappears mid-session AND the content changes underneath the caches.
  // Degraded mode must answer with forced conditional GETs that bring
  // back current bytes — zero violations through the whole episode.
  check::ByteOracle oracle;
  attach_oracle(oracle);

  (void)load();                      // cold, map present
  send_map_ = false;
  css_body_ = std::string(5000, 'D');  // changes while the map is gone
  const auto degraded = load();
  EXPECT_TRUE(sw().degraded());
  EXPECT_EQ(degraded.failed_loads, 0u);

  send_map_ = true;                  // recovery, plus another change
  webp_body_ = std::string(7000, 'W');
  const auto recovered = load();
  EXPECT_FALSE(sw().degraded());
  EXPECT_EQ(recovered.failed_loads, 0u);

  EXPECT_GE(oracle.stats().checked, 9u);  // 3 loads x 3 resources
  EXPECT_EQ(oracle.stats().violations, 0u)
      << "first: "
      << (oracle.violations().empty() ? "" : oracle.violations()[0].url);
}

TEST_F(CatalystDegradationFixture, MalformedMapWithOracleStaysClean) {
  // Garbage X-Etag-Config (hostile middlebox): the SW rejects the map and
  // falls back — and the bytes it forwards must still audit clean even
  // as the content changes between loads.
  check::ByteOracle oracle;
  attach_oracle(oracle);
  (void)load();
  malformed_map_ = true;
  css_body_ = std::string(4500, 'M');
  const auto broken = load();
  EXPECT_EQ(broken.failed_loads, 0u);
  EXPECT_EQ(sw().current_map(), nullptr);
  EXPECT_EQ(oracle.stats().violations, 0u);
  EXPECT_GE(oracle.stats().checked, 6u);
}

TEST(RobustnessTest, MidStreamDropsWithRetriesAuditClean) {
  // Aggressive fault injection (mid-stream drops, stalls, an outage
  // window) over a live-changing site under Catalyst: retries must
  // complete every visit and no fault path may leak stale bytes — the
  // oracle stays at zero violations across visits spanning changes.
  workload::SitegenParams params;
  params.seed = 35;
  params.site_index = 4;
  params.clone_static_snapshot = false;
  auto site = workload::generate_site(params);

  netsim::NetworkConditions cond = netsim::NetworkConditions::median_5g();
  cond.faults.loss_rate = 0.08;
  cond.faults.stall_rate = 0.02;
  cond.faults.outage_fraction = 0.02;
  cond.faults.fault_seed = 35;

  core::StrategyOptions opts;
  opts.byte_oracle = true;
  auto tb = core::make_testbed(site, cond, StrategyKind::Catalyst, opts);
  for (int h : {1, 9, 26, 50}) {
    const auto result = core::run_visit(tb, TimePoint{} + hours(h));
    EXPECT_GT(result.resources_total, 0u);
  }
  EXPECT_GT(tb.byte_oracle->stats().checked, 0u);
  EXPECT_EQ(tb.byte_oracle->stats().violations, 0u);
}

TEST(RobustnessTest, ZeroDelayRevisitWorks) {
  workload::SitegenParams params;
  params.seed = 34;
  params.site_index = 3;
  auto site = workload::generate_site(params);
  const auto outcome = core::run_revisit_pair(
      site, netsim::NetworkConditions::median_5g(),
      StrategyKind::Catalyst, Duration::zero());
  EXPECT_GT(outcome.revisit.resources_total, 0u);
  EXPECT_LE(outcome.revisit.plt(), outcome.cold.plt());
}

}  // namespace
}  // namespace catalyst
