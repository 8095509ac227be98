#include "src/analysis/rdf.hpp"

#include <cmath>
#include <numbers>

#include "src/util/error.hpp"

namespace tbmd::analysis {

RdfAccumulator::RdfAccumulator(double r_max, std::size_t bins)
    : r_max_(r_max), bins_(bins), hist_(bins, 0.0) {
  TBMD_REQUIRE(r_max > 0 && bins > 0, "RdfAccumulator: bad arguments");
}

void RdfAccumulator::add_frame(const System& system) {
  const std::size_t n = system.size();
  const double dr = r_max_ / static_cast<double>(bins_);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double r = system.distance(i, j);
      if (r < r_max_) {
        hist_[static_cast<std::size_t>(r / dr)] += 2.0;  // both directions
      }
    }
  }
  ++frames_;
  atoms_acc_ += static_cast<double>(n);
  if (system.cell().volume() > 0.0) {
    density_acc_ += static_cast<double>(n) / system.cell().volume();
  } else {
    // Cluster: bounding-sphere volume as the normalization density.
    Vec3 com{};
    for (const Vec3& r : system.positions()) com += r;
    com /= static_cast<double>(n);
    double rmax2 = 0.0;
    for (const Vec3& r : system.positions()) {
      rmax2 = std::max(rmax2, norm2_sq(r - com));
    }
    const double vol = 4.0 / 3.0 * std::numbers::pi *
                       std::pow(std::sqrt(rmax2) + 1.0, 3.0);
    density_acc_ += static_cast<double>(n) / vol;
  }
}

std::vector<double> RdfAccumulator::r_values() const {
  std::vector<double> r(bins_);
  const double dr = r_max_ / static_cast<double>(bins_);
  for (std::size_t b = 0; b < bins_; ++b) {
    r[b] = (static_cast<double>(b) + 0.5) * dr;
  }
  return r;
}

std::vector<double> RdfAccumulator::g_of_r() const {
  std::vector<double> g(bins_, 0.0);
  if (frames_ == 0) return g;
  const double dr = r_max_ / static_cast<double>(bins_);
  const double n_avg = atoms_acc_ / static_cast<double>(frames_);
  const double rho_avg = density_acc_ / static_cast<double>(frames_);
  for (std::size_t b = 0; b < bins_; ++b) {
    const double r_lo = static_cast<double>(b) * dr;
    const double r_hi = r_lo + dr;
    const double shell =
        4.0 / 3.0 * std::numbers::pi * (r_hi * r_hi * r_hi - r_lo * r_lo * r_lo);
    const double ideal = rho_avg * shell * n_avg;
    g[b] = hist_[b] / (static_cast<double>(frames_) * std::max(ideal, 1e-300));
  }
  return g;
}

}  // namespace tbmd::analysis
