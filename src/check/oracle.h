// Byte-equivalence oracle: the correctness ground truth for every cache
// layer in the stack.
//
// The paper's claim is that CacheCatalyst serves the *same bytes* plain
// revalidation would have fetched, while skipping the round trips. With
// four interacting cache layers (HttpCache, SwCache, EdgePop, origin) a
// staleness bug would silently inflate the PLT win, so the oracle audits
// every resource a page load consumes against the origin's authoritative
// content at fetch time and classifies the serve:
//
//   fresh          delivered bytes match the origin's content at fetch time
//   allowed-stale  bytes differ, but the response is within its RFC 9111
//                  freshness lifetime — the staleness status-quo caching
//                  explicitly permits (and the paper's motivation measures)
//   violation      bytes differ with no freshness justification. Catalyst
//                  SW serves are held to the stricter byte-equivalence bar:
//                  the X-Etag-Config map vouches for currency, so a
//                  mismatching SW serve is a violation even within TTL.
//
// The oracle is measurement-only: it never changes what any cache does.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/metrics.h"
#include "netsim/trace.h"
#include "server/site.h"
#include "util/types.h"
#include "util/url.h"

namespace catalyst::check {

/// Ground truth provider for one origin: the 64-bit FNV-1a digest
/// (fnv1a64) of the authoritative body for a path at virtual time t, or
/// nullopt when the path is unknown (the serve is then unauditable, not
/// wrong — e.g. synthesized error bodies). Serves are audited by digest,
/// so a provider memoizes digests, never bodies.
using GroundTruth = std::function<std::optional<std::uint64_t>(
    const std::string& path, TimePoint t)>;

/// In-place body transform the origin applies before serving (e.g. the
/// Catalyst server's SW-registration snippet injection into HTML). The
/// oracle applies the same transform to ground-truth content so legitimate
/// origin rewrites are not misread as corruption.
using BodyTransform = std::function<void(std::string& body)>;

/// One confirmed violation, with enough context to reproduce.
struct Violation {
  std::string url;
  netsim::FetchSource source = netsim::FetchSource::Network;
  TimePoint start{};
  TimePoint finish{};
  std::uint64_t served_digest = 0;
  std::uint64_t expected_digest = 0;
  /// Violation, PoisonedServe, or CrossUserLeak.
  netsim::ServeClass kind = netsim::ServeClass::Violation;
};

struct OracleStats {
  std::uint64_t checked = 0;        // fresh + allowed_stale + violations
  std::uint64_t fresh = 0;
  std::uint64_t allowed_stale = 0;
  std::uint64_t violations = 0;     // includes poisoned/leak subclasses
  std::uint64_t unauditable = 0;    // unknown origin/path or non-200
  std::uint64_t poisoned_serves = 0;  // of violations: reflected unkeyed input
  std::uint64_t cross_user_leaks = 0; // of violations: another user's input
};

class ByteOracle {
 public:
  /// Registers a ground-truth provider for `host`.
  void add_origin(std::string host, GroundTruth truth);

  /// Convenience: audit `site` under its own host name. `html_transform`
  /// (optional) is applied to every Html-class resource's ground truth;
  /// the transformed body's digest is memoized per content version.
  void add_site(std::shared_ptr<server::Site> site,
                BodyTransform html_transform = {});

  /// Audits `host` against `site`'s content — the edge-PoP case, where
  /// main-origin traffic is addressed to the PoP's host.
  void add_alias(std::string host, std::shared_ptr<server::Site> site,
                 BodyTransform html_transform = {});

  /// Classifies one delivered serve. Called by the browser's serve
  /// classifier hook for every resource a page load records.
  netsim::ServeClass classify(const Url& url,
                              const client::FetchOutcome& outcome);

  const OracleStats& stats() const { return stats_; }

  /// First violations seen (capped; stats_.violations is the full count).
  const std::vector<Violation>& violations() const { return violations_; }

  void clear();

 private:
  static constexpr std::size_t kMaxRecordedViolations = 64;

  std::map<std::string, GroundTruth> origins_;
  OracleStats stats_;
  std::vector<Violation> violations_;
};

}  // namespace catalyst::check
