#include "trace/export.h"

namespace spider::trace {

void write_cdf_csv(std::ostream& out, const std::string& label,
                   const EmpiricalCdf& cdf, int points, double x_min,
                   double x_max) {
  write_cdfs_csv(out, {{label, &cdf}}, points, x_min, x_max);
}

void write_cdfs_csv(std::ostream& out, const std::vector<NamedCdf>& series,
                    int points, double x_min, double x_max) {
  out << "x";
  for (const auto& s : series) out << "," << s.label;
  out << "\n";
  for (int i = 0; i < points; ++i) {
    const double x =
        x_min + (x_max - x_min) * static_cast<double>(i) / (points - 1);
    out << x;
    for (const auto& s : series) {
      out << "," << (s.cdf->empty() ? 0.0 : s.cdf->fraction_at_or_below(x));
    }
    out << "\n";
  }
}

}  // namespace spider::trace
