// Correctness checks of a benchmark run and the result line it prints.
//
// A run whose checks fail reports itself as failed and prints no
// numbers: a speed-up that changes what the simulator says is a
// behaviour change, not a speed-up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/report.h"

namespace perfbench {

/// Accumulates failed checks; a run is correct while it holds none.
class Verdict {
 public:
  void fail(std::string what) { failures_.push_back(std::move(what)); }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Lowercase hex SHA-1 of a serialized FleetReport.
std::string report_digest(const std::string& serialized);

/// Invariants every report of a run must hold. `serialized` is
/// report.serialize(); its revisit fetch outcomes must add up to the
/// report's revisit fetch count. With `oracle`, the byte oracle must have
/// audited serves and found no violation.
void check_report(const std::string& label,
                  const catalyst::fleet::FleetReport& report,
                  const std::string& serialized, bool oracle,
                  Verdict& verdict);

/// Fails unless two digests of the same inputs agree.
void check_same_digest(const std::string& label, const std::string& expected,
                       const std::string& actual, Verdict& verdict);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The JSON object a run prints as its last stdout line. A failed verdict
/// reports "correct": false with no metrics.
std::string result_line(const Verdict& verdict, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
