#include "checks.h"

#include <charconv>
#include <optional>

#include "util/hash.h"
#include "util/json.h"

namespace perfbench {

using namespace catalyst;

std::string report_digest(const std::string& serialized) {
  return Sha1::hex_digest(serialized);
}

namespace {

std::optional<std::uint64_t> json_count(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr) return std::nullopt;
  return static_cast<std::uint64_t>(v->as_number());
}

}  // namespace

void check_report(const std::string& label, const fleet::FleetReport& report,
                  const std::string& serialized, bool oracle,
                  Verdict& verdict) {
  if (report.users == 0) verdict.fail(label + ": no users replayed");

  if (report.oracle.violations != 0) {
    verdict.fail(label + ": " + std::to_string(report.oracle.violations) +
                 " byte-oracle violations");
  }
  if (oracle && report.oracle.checked == 0) {
    verdict.fail(label + ": the byte oracle audited no serve");
  }

  for (const auto& [pop, e] : report.edge_pops) {
    if (e.requests != e.hits + e.flash_hits + e.revalidated_hits + e.misses) {
      verdict.fail(label + ": PoP " + std::to_string(pop) + " requests " +
                   std::to_string(e.requests) + " != hits " +
                   std::to_string(e.hits) + " + flash_hits " +
                   std::to_string(e.flash_hits) + " + revalidated_hits " +
                   std::to_string(e.revalidated_hits) + " + misses " +
                   std::to_string(e.misses));
    }
  }

  // The outcome counts a reader of the serialized report sees must add up
  // to the revisit fetches the replay counted.
  const std::optional<Json> doc = Json::parse(serialized);
  const Json* fetches = doc ? doc->find("revisit_fetches") : nullptr;
  if (fetches == nullptr) {
    verdict.fail(label + ": serialized report has no revisit_fetches");
    return;
  }
  std::uint64_t sum = 0;
  for (const char* key : {"from_network", "from_cache", "not_modified",
                          "from_sw_cache", "from_push"}) {
    const std::optional<std::uint64_t> n = json_count(*fetches, key);
    if (!n) {
      verdict.fail(label + ": serialized revisit_fetches lacks " + key);
      return;
    }
    sum += *n;
  }
  if (sum != report.counters.total()) {
    verdict.fail(label + ": cache-outcome counts sum to " +
                 std::to_string(sum) + ", not the " +
                 std::to_string(report.counters.total()) +
                 " revisit fetches");
  }
}

void check_same_digest(const std::string& label, const std::string& expected,
                       const std::string& actual, Verdict& verdict) {
  if (expected != actual) {
    verdict.fail(label + ": report digest " + actual + " != " + expected);
  }
}

std::string result_line(const Verdict& verdict, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += verdict.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  if (verdict.ok()) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char num[64];
      const auto res =
          std::to_chars(num, num + sizeof(num), metrics[i].value);
      out += i == 0 ? "" : ", ";
      out += "\"" + metrics[i].name + "\": {\"value\": " +
             std::string(num, res.ptr) + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
