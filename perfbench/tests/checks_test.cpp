// Planted-defect self-test of the benchmark's correctness checks: each
// case tampers with a real fleet report or digest and expects the run to
// be reported as failed, with no numbers printed.
#include <gtest/gtest.h>

#include <string>

#include "checks.h"
#include "fleet/runner.h"
#include "workloads.h"

namespace {

using namespace catalyst;
using namespace perfbench;

struct Replayed {
  const Workload* workload;
  fleet::FleetReport report;
  std::string serialized;
};

Replayed replay(std::string_view name) {
  const Workload* w = find_workload(name);
  EXPECT_NE(w, nullptr);
  Replayed r{w, fleet::FleetRunner(cohort_params(*w, 7, 0), 16, 2).run(), ""};
  r.serialized = r.report.serialize();
  return r;
}

Verdict check(const Replayed& r) {
  Verdict v;
  check_report("test", r.report, r.serialized, r.workload->oracle, v);
  return v;
}

std::string result(const Verdict& v) {
  return result_line(v, 16, 0, {{"users_per_s", 12.5, "1/s"}});
}

void expect_failed_run(const Verdict& v) {
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(result(v),
            "{\"correct\": false, \"attempted\": 16, \"failed\": 0, "
            "\"metrics\": {}}");
}

TEST(PerfbenchChecksTest, UntamperedReportsPassAndPrintNumbers) {
  for (const char* name : {"revisit", "edge-flash", "cold-h2-oracle"}) {
    const Verdict v = check(replay(name));
    EXPECT_TRUE(v.ok()) << name << ": " << (v.ok() ? "" : v.failures()[0]);
    EXPECT_EQ(result(v),
              "{\"correct\": true, \"attempted\": 16, \"failed\": 0, "
              "\"metrics\": {\"users_per_s\": {\"value\": 12.5, "
              "\"unit\": \"1/s\"}}}");
  }
}

TEST(PerfbenchChecksTest, DigestMismatchFailsTheRun) {
  const Replayed r = replay("revisit");
  const std::string digest = report_digest(r.serialized);
  Verdict same;
  check_same_digest("traced", digest, report_digest(r.serialized), same);
  EXPECT_TRUE(same.ok());

  std::string tampered = r.serialized;
  tampered.back() = ' ';
  Verdict v;
  check_same_digest("traced", digest, report_digest(tampered), v);
  expect_failed_run(v);
}

TEST(PerfbenchChecksTest, OracleViolationFailsTheRun) {
  Replayed r = replay("cold-h2-oracle");
  ASSERT_GT(r.report.oracle.checked, 0u);
  r.report.oracle.violations = 1;
  expect_failed_run(check(r));
}

TEST(PerfbenchChecksTest, OracleThatAuditedNothingFailsTheRun) {
  Replayed r = replay("cold-h2-oracle");
  r.report.oracle = {};
  expect_failed_run(check(r));
}

TEST(PerfbenchChecksTest, BrokenPopAccountingFailsTheRun) {
  Replayed r = replay("edge-flash");
  ASSERT_FALSE(r.report.edge_pops.empty());
  r.report.edge_pops.begin()->second.requests += 1;
  expect_failed_run(check(r));
}

TEST(PerfbenchChecksTest, OutcomesNotSummingToRevisitFetchesFailTheRun) {
  Replayed r = replay("revisit");
  ASSERT_GT(r.report.counters.total(), 0u);
  r.report.counters.from_sw_cache += 1;
  expect_failed_run(check(r));
}

}  // namespace
