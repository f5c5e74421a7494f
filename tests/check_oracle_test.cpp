// Byte-equivalence oracle: classification rules (fresh / allowed-stale /
// violation / unauditable), the Catalyst HTML-transform ground truth, and
// the end-to-end mutation self-test (a deliberately broken stale-serving
// cache must be flagged; the clean build must not).
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "core/experiment.h"
#include "edge/pop.h"
#include "html/generate.h"
#include "http/date.h"
#include "server/catalyst_module.h"
#include "util/hash.h"
#include "workload/sitegen.h"

namespace catalyst {
namespace {

using check::ByteOracle;
using client::FetchOutcome;
using netsim::ServeClass;

/// One-page site whose stylesheet changes every hour (first change at
/// t=30min), with a short explicit TTL so staleness is provable.
std::shared_ptr<server::Site> changing_site() {
  auto site = std::make_shared<server::Site>("osite.example");
  site->add_resource(std::make_unique<server::Resource>(
      "/index.html", http::ResourceClass::Html, 0,
      [](std::uint64_t) {
        html::HtmlBuilder page("oracle");
        page.add_stylesheet("/a.css");
        return page.build();
      },
      server::ChangeProcess::never(),
      http::CacheControl::revalidate_always()));
  site->add_resource(std::make_unique<server::Resource>(
      "/a.css", http::ResourceClass::Css, 2048,
      [](std::uint64_t v) { return html::make_css({}, {}, {}, 2048, v); },
      server::ChangeProcess::periodic(hours(1), minutes(30), hours(48)),
      http::CacheControl::with_max_age(seconds(60))));
  return site;
}

FetchOutcome outcome_with(std::string body, TimePoint at,
                          netsim::FetchSource source =
                              netsim::FetchSource::Network) {
  FetchOutcome out;
  out.response = http::Response::make(http::Status::Ok);
  out.response.body = std::move(body);
  out.response.finalize(at);  // Date: at
  out.source = source;
  out.start = at;
  out.finish = at;
  return out;
}

TEST(ByteOracleTest, MatchingBytesClassifyFresh) {
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const TimePoint t = TimePoint{} + hours(1);
  const Url url = *Url::parse("https://osite.example/a.css");
  const auto verdict = oracle.classify(
      url, outcome_with(site->find("/a.css")->content_at(t), t));
  EXPECT_EQ(verdict, ServeClass::Fresh);
  EXPECT_EQ(oracle.stats().fresh, 1u);
  EXPECT_EQ(oracle.stats().violations, 0u);
}

TEST(ByteOracleTest, MidFlightVersionFlipIsFreshAtStartTime) {
  // A fetch that started before a change legitimately delivers the
  // version current at its start.
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const Url url = *Url::parse("https://osite.example/a.css");
  FetchOutcome out = outcome_with(
      site->find("/a.css")->content_at(TimePoint{} + minutes(29)),
      TimePoint{} + minutes(29));
  out.finish = TimePoint{} + minutes(31);  // change landed at 30min
  EXPECT_EQ(oracle.classify(url, out), ServeClass::Fresh);
}

TEST(ByteOracleTest, StaleWithinTtlIsAllowedStale) {
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const Url url = *Url::parse("https://osite.example/a.css");
  // Bytes from before the 30min change, served 10s after it. The
  // response's own headers (max-age=60, Date at serve-10s) still cover
  // it: RFC 9111 permits this serve, so it is allowed-stale.
  FetchOutcome out = outcome_with(
      site->find("/a.css")->content_at(TimePoint{} + minutes(29)),
      TimePoint{} + minutes(30) + seconds(10),
      netsim::FetchSource::BrowserCache);
  out.response.headers.set(
      http::kCacheControl,
      http::CacheControl::with_max_age(seconds(60)).to_string());
  out.response.headers.set(
      http::kDate,
      http::format_http_date(TimePoint{} + minutes(30)));
  EXPECT_EQ(oracle.classify(url, out), ServeClass::AllowedStale);
  EXPECT_EQ(oracle.stats().allowed_stale, 1u);
  EXPECT_EQ(oracle.stats().violations, 0u);
}

TEST(ByteOracleTest, StalePastTtlIsViolation) {
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const Url url = *Url::parse("https://osite.example/a.css");
  // Same stale bytes, but served 10 minutes after the change: max-age=60
  // expired long ago, so nothing excuses the mismatch.
  FetchOutcome out = outcome_with(
      site->find("/a.css")->content_at(TimePoint{} + minutes(29)),
      TimePoint{} + minutes(40), netsim::FetchSource::BrowserCache);
  out.response.headers.set(
      http::kCacheControl,
      http::CacheControl::with_max_age(seconds(60)).to_string());
  out.response.headers.set(
      http::kDate, http::format_http_date(TimePoint{} + minutes(29)));
  EXPECT_EQ(oracle.classify(url, out), ServeClass::Violation);
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_EQ(oracle.violations()[0].url, "https://osite.example/a.css");
  EXPECT_NE(oracle.violations()[0].served_digest,
            oracle.violations()[0].expected_digest);
}

TEST(ByteOracleTest, SwServeGetsNoFreshnessExcuse) {
  // Catalyst's X-Etag-Config vouches for byte-currency; a mismatching SW
  // serve is a violation even inside the TTL window.
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const Url url = *Url::parse("https://osite.example/a.css");
  FetchOutcome out = outcome_with(
      site->find("/a.css")->content_at(TimePoint{} + minutes(29)),
      TimePoint{} + minutes(30) + seconds(10),
      netsim::FetchSource::SwCache);
  out.response.headers.set(
      http::kCacheControl,
      http::CacheControl::with_max_age(seconds(60)).to_string());
  out.response.headers.set(
      http::kDate,
      http::format_http_date(TimePoint{} + minutes(30)));
  EXPECT_EQ(oracle.classify(url, out), ServeClass::Violation);
}

TEST(ByteOracleTest, UnknownOriginAndErrorsAreUnauditable) {
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const TimePoint t{};
  EXPECT_EQ(oracle.classify(*Url::parse("https://elsewhere.example/x"),
                            outcome_with("whatever", t)),
            ServeClass::Unchecked);
  FetchOutcome err = outcome_with("not found", t);
  err.response.status = http::Status::NotFound;
  EXPECT_EQ(oracle.classify(*Url::parse("https://osite.example/nope"), err),
            ServeClass::Unchecked);
  EXPECT_EQ(oracle.stats().checked, 0u);
  EXPECT_EQ(oracle.stats().unauditable, 2u);
}

TEST(ByteOracleTest, HtmlTransformFoldsOriginRewriteIntoGroundTruth) {
  // A Catalyst origin injects the SW-registration snippet into HTML; the
  // oracle's ground truth must include the same rewrite or every
  // decorated serve would misread as corruption.
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site, [](std::string& body) {
    server::CatalystModule::inject_registration(body);
  });
  const TimePoint t{};
  const Url url = *Url::parse("https://osite.example/index.html");
  std::string decorated = site->find("/index.html")->content_at(t);
  server::CatalystModule::inject_registration(decorated);
  EXPECT_EQ(oracle.classify(url, outcome_with(decorated, t)),
            ServeClass::Fresh);
  // The raw (undecorated) body no longer matches the transformed truth,
  // and revalidate_always grants no freshness — violation.
  EXPECT_EQ(oracle.classify(
                url, outcome_with(site->find("/index.html")->content_at(t),
                                  t)),
            ServeClass::Violation);
}

/// Catalyst-decorated HTML whose content changes every hour (first change
/// at t=30min) and which is never fresh without revalidation.
std::shared_ptr<server::Site> changing_html_site() {
  auto site = std::make_shared<server::Site>("osite.example");
  site->add_resource(std::make_unique<server::Resource>(
      "/index.html", http::ResourceClass::Html, 0,
      [](std::uint64_t v) {
        html::HtmlBuilder page("oracle v" + std::to_string(v));
        page.add_stylesheet("/a.css");
        return page.build();
      },
      server::ChangeProcess::periodic(hours(1), minutes(30), hours(48)),
      http::CacheControl::revalidate_always()));
  return site;
}

std::string decorated_html(const server::Site& site, TimePoint t) {
  std::string body = site.find("/index.html")->content_at(t);
  server::CatalystModule::inject_registration(body);
  return body;
}

void add_catalyst_site(ByteOracle& oracle,
                       std::shared_ptr<server::Site> site) {
  oracle.add_site(std::move(site), [](std::string& body) {
    server::CatalystModule::inject_registration(body);
  });
}

TEST(ByteOracleTest, StaleTransformedHtmlExpectsTransformedDigest) {
  // Ground truth is the digest of the body the origin would serve now:
  // the *decorated* current HTML, not the raw resource content.
  auto site = changing_html_site();
  ByteOracle oracle;
  add_catalyst_site(oracle, site);
  const Url url = *Url::parse("https://osite.example/index.html");
  const TimePoint before = TimePoint{} + minutes(29);
  const TimePoint after = TimePoint{} + minutes(40);
  ASSERT_NE(decorated_html(*site, before), decorated_html(*site, after));
  EXPECT_EQ(oracle.classify(url, outcome_with(decorated_html(*site, before),
                                              after)),
            ServeClass::Violation);
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_EQ(oracle.violations()[0].expected_digest,
            fnv1a64(decorated_html(*site, after)));
  EXPECT_EQ(oracle.violations()[0].served_digest,
            fnv1a64(decorated_html(*site, before)));
}

TEST(ByteOracleTest, TransformedHtmlFetchSpanningFlipIsFreshAtStartTime) {
  // Decorated HTML fetched across a version flip matches the memoized
  // digest at its start time, not at its finish time.
  auto site = changing_html_site();
  ByteOracle oracle;
  add_catalyst_site(oracle, site);
  const Url url = *Url::parse("https://osite.example/index.html");
  FetchOutcome out = outcome_with(
      decorated_html(*site, TimePoint{} + minutes(29)),
      TimePoint{} + minutes(29));
  out.finish = TimePoint{} + minutes(31);
  EXPECT_EQ(oracle.classify(url, out), ServeClass::Fresh);
  // Audited again once both versions are memoized, same verdict.
  EXPECT_EQ(oracle.classify(url, out), ServeClass::Fresh);
  EXPECT_EQ(oracle.stats().fresh, 2u);
  EXPECT_EQ(oracle.stats().violations, 0u);
}

TEST(ByteOracleTest, EdgeAliasAuditsPopHostAgainstSite) {
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_alias("edge.pop0", site);
  const TimePoint t = TimePoint{} + hours(2);
  EXPECT_EQ(oracle.classify(
                *Url::parse("https://edge.pop0/a.css"),
                outcome_with(site->find("/a.css")->content_at(t), t)),
            ServeClass::Fresh);
}

/// End-to-end mutation self-test over the real testbed: the clean build
/// must audit clean; the deliberately broken StaleServeStrategy (cached
/// entries served without revalidation regardless of freshness) must
/// produce violations within two visits.
class OracleMutationTest : public ::testing::Test {
 protected:
  check::OracleStats run(bool mutate) {
    core::StrategyOptions opts;
    opts.byte_oracle = true;
    opts.mutate_stale_serve = mutate;
    auto tb = core::make_testbed(changing_site(),
                                 netsim::NetworkConditions::median_5g(),
                                 core::StrategyKind::Baseline, opts);
    // Visit at 1h (version 1 cached), revisit at 2h (version 2 on the
    // origin; the cached copy is stale and far past its 60s TTL).
    (void)core::run_visit(tb, TimePoint{} + hours(1));
    (void)core::run_visit(tb, TimePoint{} + hours(2));
    return tb.byte_oracle->stats();
  }
};

TEST_F(OracleMutationTest, CleanBuildAuditsClean) {
  const auto stats = run(false);
  EXPECT_GT(stats.checked, 0u);
  EXPECT_EQ(stats.violations, 0u);
}

TEST_F(OracleMutationTest, StaleServeStrategyIsCaught) {
  const auto stats = run(true);
  EXPECT_GT(stats.violations, 0u);
}

TEST(ByteOracleTest, ReflectedMarkerIsPoisonedServe) {
  // A body carrying another request's reflected X-Forwarded-Host can never
  // be legitimate: legitimate clients do not send that header, so the
  // marker proves the cache served someone else's input.
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const TimePoint t = TimePoint{} + hours(1);
  const Url url = *Url::parse("https://osite.example/a.css");
  std::string body = site->find("/a.css")->content_at(t);
  body += "\n<!--reflect:evil.example-->";
  EXPECT_EQ(oracle.classify(url, outcome_with(std::move(body), t)),
            ServeClass::PoisonedServe);
  EXPECT_EQ(oracle.stats().violations, 1u);
  EXPECT_EQ(oracle.stats().poisoned_serves, 1u);
  EXPECT_EQ(oracle.stats().cross_user_leaks, 0u);
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_EQ(oracle.violations().front().kind, ServeClass::PoisonedServe);
}

TEST(ByteOracleTest, UidMarkerIsCrossUserLeak) {
  // A uid-tagged reflection identifies a *specific other user's* request:
  // the victim is observing someone else's traffic, not just junk.
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const TimePoint t = TimePoint{} + hours(1);
  const Url url = *Url::parse("https://osite.example/a.css");
  std::string body = site->find("/a.css")->content_at(t);
  body += "\n<!--reflect:uid:attacker-3-->";
  EXPECT_EQ(oracle.classify(url, outcome_with(std::move(body), t)),
            ServeClass::CrossUserLeak);
  EXPECT_EQ(oracle.stats().violations, 1u);
  EXPECT_EQ(oracle.stats().cross_user_leaks, 1u);
  EXPECT_EQ(oracle.stats().poisoned_serves, 0u);
}

TEST(ByteOracleTest, PoisonMarkerBeatsFreshnessExcuse) {
  // A poisoned entry is typically *fresh by its own headers* — that is
  // what makes poisoning durable. The marker scan must run before the
  // RFC 9111 freshness excuse or every poisoned serve would classify
  // AllowedStale.
  auto site = changing_site();
  ByteOracle oracle;
  oracle.add_site(site);
  const TimePoint t = TimePoint{} + hours(1);
  const Url url = *Url::parse("https://osite.example/a.css");
  std::string body = site->find("/a.css")->content_at(t);
  body += "\n<!--reflect:evil.example-->";
  FetchOutcome out = outcome_with(std::move(body), t,
                                  netsim::FetchSource::BrowserCache);
  out.response.headers.set(
      http::kCacheControl,
      http::CacheControl::with_max_age(seconds(3600)).to_string());
  EXPECT_EQ(oracle.classify(url, out), ServeClass::PoisonedServe);
}

/// End-to-end poisoning self-test: a scripted adversary striking an edge
/// PoP with unkeyed X-Forwarded-Host requests. With the planted
/// vulnerable keying the oracle must flag poisoned serves; with strict
/// (header-partitioned) keys the same attack must bounce off.
class AdversaryPoisoningTest : public ::testing::Test {
 protected:
  check::OracleStats run(bool vulnerable_keying) {
    edge::EdgeConfig ec;
    ec.pop_id = 0;
    ec.capacity = MiB(8);
    ec.vulnerable_keying = vulnerable_keying;
    edge::EdgePop pop(ec);
    core::StrategyOptions opts;
    opts.byte_oracle = true;
    opts.edge_pop = &pop;
    opts.adversary.enabled = true;
    auto tb = core::make_testbed(changing_site(),
                                 netsim::NetworkConditions::median_5g(),
                                 core::StrategyKind::Catalyst, opts);
    (void)core::run_visit(tb, TimePoint{} + hours(1));
    (void)core::run_visit(tb, TimePoint{} + hours(1) + minutes(5));
    return tb.byte_oracle->stats();
  }
};

TEST_F(AdversaryPoisoningTest, VulnerableKeyingIsCaught) {
  const auto stats = run(true);
  EXPECT_GT(stats.poisoned_serves + stats.cross_user_leaks, 0u);
  EXPECT_GT(stats.violations, 0u);
}

TEST_F(AdversaryPoisoningTest, StrictKeyingDefendsAgainstTheSameAttack) {
  const auto stats = run(false);
  EXPECT_GT(stats.checked, 0u);
  EXPECT_EQ(stats.violations, 0u);
}

TEST(OracleTestbedTest, GeneratedSiteCatalystAuditsClean) {
  // A full generated site with live change processes under Catalyst: the
  // strictest configuration (SW serves held to byte-equivalence) must
  // stay violation-free across revisits spanning content changes.
  workload::SitegenParams params;
  params.seed = 7;
  params.site_index = 0;
  params.clone_static_snapshot = false;
  auto site = workload::generate_site(params);

  core::StrategyOptions opts;
  opts.byte_oracle = true;
  auto tb = core::make_testbed(site, netsim::NetworkConditions::median_5g(),
                               core::StrategyKind::Catalyst, opts);
  for (int h : {1, 13, 25, 49}) {
    (void)core::run_visit(tb, TimePoint{} + hours(h));
  }
  EXPECT_GT(tb.byte_oracle->stats().checked, 0u);
  EXPECT_EQ(tb.byte_oracle->stats().violations, 0u);
}

}  // namespace
}  // namespace catalyst
