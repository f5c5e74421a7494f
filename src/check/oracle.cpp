#include "check/oracle.h"

#include <algorithm>

#include "cache/freshness.h"
#include "http/date.h"
#include "http/headers.h"
#include "util/hash.h"
#include "util/strings.h"

namespace catalyst::check {
namespace {

/// The origin's unkeyed-input reflection marker (server::Server appends
/// "\n<!--reflect:<value>-->" when configured to reflect X-Forwarded-Host).
constexpr std::string_view kReflectPrefix = "<!--reflect:";

/// Would RFC 9111 have allowed serving this response without revalidation
/// at `now`? Computed from the delivered response's own headers: apparent
/// age (now − Date, floored at zero, plus any Age header) against the
/// freshness lifetime. Responses revalidated via 304 carry a refreshed
/// Date (http_cache::apply_not_modified / edge 304 forwarding), so the
/// apparent age reflects the entry's true validation recency across hops.
bool within_freshness(const http::Response& response, TimePoint now) {
  const Duration lifetime = cache::freshness_lifetime(response,
                                                      /*allow_heuristic=*/true);
  if (lifetime <= Duration::zero()) return false;
  Duration apparent_age = Duration::zero();
  if (const auto date_field = response.headers.get(http::kDate)) {
    if (const auto date = http::parse_http_date(*date_field)) {
      apparent_age = std::max(Duration::zero(), now - *date);
    }
  }
  if (const auto age_field = response.headers.get(http::kAge)) {
    std::uint64_t age_seconds = 0;
    if (parse_u64(*age_field, age_seconds)) {
      apparent_age = std::max(
          apparent_age, seconds(static_cast<std::int64_t>(age_seconds)));
    }
  }
  return lifetime > apparent_age;
}

}  // namespace

void ByteOracle::add_origin(std::string host, GroundTruth truth) {
  origins_[std::move(host)] = std::move(truth);
}

void ByteOracle::add_site(std::shared_ptr<server::Site> site,
                          BodyTransform html_transform) {
  std::string host = site->host();
  add_alias(std::move(host), std::move(site), std::move(html_transform));
}

void ByteOracle::add_alias(std::string host,
                           std::shared_ptr<server::Site> site,
                           BodyTransform html_transform) {
  // Untransformed truth is the Resource's own memoized digest. Transformed
  // HTML digests are memoized per (path, version), so each rewritten body
  // is built and digested once, not once per audit.
  auto memo = std::make_shared<
      std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>>();
  origins_[std::move(host)] =
      [site = std::move(site), html_transform = std::move(html_transform),
       memo](const std::string& path,
             TimePoint t) -> std::optional<std::uint64_t> {
    const server::Resource* r = site->find(path);
    if (r == nullptr) return std::nullopt;
    if (!html_transform ||
        r->resource_class() != http::ResourceClass::Html) {
      return r->content_digest_at(t);
    }
    const std::uint64_t version = r->version_at(t);
    auto [it, inserted] = memo->try_emplace({path, version});
    if (inserted) {
      std::string body = r->content_at(t);
      html_transform(body);
      it->second = fnv1a64(body);
    }
    return it->second;
  };
}

netsim::ServeClass ByteOracle::classify(const Url& url,
                                        const client::FetchOutcome& outcome) {
  // Only successful serves carry content to audit; error bodies (404/5xx,
  // synthesized 504s) have no origin ground truth.
  if (outcome.response.status != http::Status::Ok) {
    ++stats_.unauditable;
    return netsim::ServeClass::Unchecked;
  }
  const auto it = origins_.find(url.host);
  if (it == origins_.end()) {
    ++stats_.unauditable;
    return netsim::ServeClass::Unchecked;
  }
  const std::optional<std::uint64_t> truth =
      it->second(url.path, outcome.finish);
  if (!truth) {
    ++stats_.unauditable;
    return netsim::ServeClass::Unchecked;
  }

  ++stats_.checked;
  const std::uint64_t served = outcome.response.body_digest();
  if (served == *truth) {
    ++stats_.fresh;
    return netsim::ServeClass::Fresh;
  }
  // The content changed mid-flight cases: a fetch started before a version
  // flip can legitimately deliver the version current at its start time.
  if (served == it->second(url.path, outcome.start)) {
    ++stats_.fresh;
    return netsim::ServeClass::Fresh;
  }

  // Unkeyed-input reflection check, ahead of the freshness excuse: a
  // poisoned cache entry is typically *fresh* by its own headers, which
  // is exactly what makes poisoning worse than staleness. Legitimate
  // clients never send X-Forwarded-Host, so any reflection marker in a
  // classified body came from some other request's input. Markers whose
  // payload self-identifies as another user ("uid:...") are the
  // confidentiality flavor; everything else is integrity poisoning.
  const auto marker = outcome.response.body.find(kReflectPrefix);
  if (marker != std::string::npos) {
    const std::size_t value_begin = marker + kReflectPrefix.size();
    const std::size_t value_end =
        outcome.response.body.find("-->", value_begin);
    std::string_view value;
    if (value_end != std::string::npos) {
      value = std::string_view(outcome.response.body)
                  .substr(value_begin, value_end - value_begin);
    }
    const bool leak = value.substr(0, 4) == "uid:";
    ++stats_.violations;
    if (leak) {
      ++stats_.cross_user_leaks;
    } else {
      ++stats_.poisoned_serves;
    }
    const netsim::ServeClass kind = leak
                                        ? netsim::ServeClass::CrossUserLeak
                                        : netsim::ServeClass::PoisonedServe;
    if (violations_.size() < kMaxRecordedViolations) {
      Violation v;
      v.url = url.to_string();
      v.source = outcome.source;
      v.start = outcome.start;
      v.finish = outcome.finish;
      v.served_digest = served;
      v.expected_digest = *truth;
      v.kind = kind;
      violations_.push_back(std::move(v));
    }
    return kind;
  }

  // Stale bytes. Catalyst SW serves claim byte-currency (the X-Etag-Config
  // map vouched for these exact bytes), so freshness is no excuse there.
  const bool excusable =
      outcome.source != netsim::FetchSource::SwCache &&
      within_freshness(outcome.response, outcome.finish);
  if (excusable) {
    ++stats_.allowed_stale;
    return netsim::ServeClass::AllowedStale;
  }

  ++stats_.violations;
  if (violations_.size() < kMaxRecordedViolations) {
    Violation v;
    v.url = url.to_string();
    v.source = outcome.source;
    v.start = outcome.start;
    v.finish = outcome.finish;
    v.served_digest = served;
    v.expected_digest = *truth;
    violations_.push_back(std::move(v));
  }
  return netsim::ServeClass::Violation;
}

void ByteOracle::clear() {
  stats_ = OracleStats{};
  violations_.clear();
}

}  // namespace catalyst::check
