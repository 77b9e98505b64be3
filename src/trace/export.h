// Result exporters: CSV series for gnuplot/matplotlib. Writers target any
// std::ostream so tests can capture into stringstreams. JSON output goes
// through the telemetry appenders (telemetry/json.h).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "trace/stats.h"

namespace spider::trace {

// "x,<label>" header then one "x,F(x)" row per point.
void write_cdf_csv(std::ostream& out, const std::string& label,
                   const EmpiricalCdf& cdf, int points, double x_min,
                   double x_max);

// Multiple series on a shared x grid: "x,label1,label2,..." —
// the layout a spreadsheet or gnuplot expects for a multi-line figure.
struct NamedCdf {
  std::string label;
  const EmpiricalCdf* cdf;
};
void write_cdfs_csv(std::ostream& out, const std::vector<NamedCdf>& series,
                    int points, double x_min, double x_max);

}  // namespace spider::trace
