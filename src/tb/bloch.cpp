#include "src/tb/bloch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include "src/tb/hamiltonian.hpp"
#include "src/tb/slater_koster.hpp"
#include "src/util/error.hpp"

namespace tbmd::tb {

Vec3 fractional_to_k(const Cell& cell, const Vec3& k_frac) {
  TBMD_REQUIRE(cell.volume() > 0.0, "fractional_to_k: cell has no lattice");
  return 2.0 * std::numbers::pi * (cell.h_inverse() * k_frac);
}

BlochMatrix build_bloch_hamiltonian(const TbModel& model, const System& system,
                                    const Vec3& k) {
  const std::vector<std::uint32_t> dims = orbital_block_dims(model, system);
  const Cell& cell = system.cell();
  TBMD_REQUIRE(cell.periodic(), "bloch: system must be periodic");

  const std::size_t n = system.size();
  std::vector<std::size_t> spi(n);
  std::vector<std::size_t> off(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    spi[i] = static_cast<std::size_t>(
        model.species_index(system.species()[i]));
    off[i + 1] = off[i] + dims[i];
  }
  const std::size_t norb = off[n];
  BlochMatrix h{linalg::Matrix(norb, norb, 0.0),
                linalg::Matrix(norb, norb, 0.0)};

  // On-site terms.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t q = 0; q < dims[i]; ++q) {
      h.real(off[i] + q, off[i] + q) =
          model.onsite_energy(spi[i], static_cast<int>(q));
    }
  }

  // Image range: enough lattice translations to cover the model cutoff,
  // which bounds every pair's hopping cutoff.
  const double rc = model.cutoff();
  const auto heights = cell.heights();
  int range[3];
  for (int a = 0; a < 3; ++a) {
    range[a] = cell.periodic(a)
                   ? static_cast<int>(std::ceil(rc / heights[a]))
                   : 0;
  }

  const auto& pos = system.positions();
  double b[81];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const PairParams& pp = model.pair(spi[i], spi[j]);
      const int bsi = static_cast<int>(dims[i]);
      const int bsj = static_cast<int>(dims[j]);
      for (int n1 = -range[0]; n1 <= range[0]; ++n1) {
        for (int n2 = -range[1]; n2 <= range[1]; ++n2) {
          for (int n3 = -range[2]; n3 <= range[2]; ++n3) {
            if (i == j && n1 == 0 && n2 == 0 && n3 == 0) continue;
            const Vec3 d =
                pos[j] + cell.shift_vector(n1, n2, n3) - pos[i];
            const double r = norm(d);
            if (r >= pp.hopping.r_cut || r < 1e-9) continue;
            sk_pair_block_into(pp, bsi, bsj, d, r, b, nullptr);
            const double phase = dot(k, d);
            const double c = std::cos(phase);
            const double s = std::sin(phase);
            for (int a = 0; a < bsi; ++a) {
              for (int q = 0; q < bsj; ++q) {
                h.real(off[i] + a, off[j] + q) += c * b[bsj * a + q];
                h.imag(off[i] + a, off[j] + q) += s * b[bsj * a + q];
              }
            }
          }
        }
      }
    }
  }
  return h;
}

std::vector<double> bloch_eigenvalues(const TbModel& model,
                                      const System& system, const Vec3& k) {
  const BlochMatrix h = build_bloch_hamiltonian(model, system, k);
  return linalg::eigvalsh_hermitian(h.real, h.imag);
}

std::vector<Vec3> interpolate_kpath(const std::vector<Vec3>& waypoints,
                                    int per_segment) {
  TBMD_REQUIRE(waypoints.size() >= 2 && per_segment >= 1,
               "interpolate_kpath: need >= 2 waypoints and >= 1 pts/segment");
  std::vector<Vec3> path;
  for (std::size_t leg = 0; leg + 1 < waypoints.size(); ++leg) {
    for (int q = 0; q < per_segment; ++q) {
      const double t = static_cast<double>(q) / per_segment;
      path.push_back(waypoints[leg] +
                     t * (waypoints[leg + 1] - waypoints[leg]));
    }
  }
  path.push_back(waypoints.back());
  return path;
}

std::vector<std::vector<double>> band_structure(const TbModel& model,
                                                const System& system,
                                                const std::vector<Vec3>& kpts) {
  std::vector<std::vector<double>> bands;
  bands.reserve(kpts.size());
  for (const Vec3& k : kpts) {
    bands.push_back(bloch_eigenvalues(model, system, k));
  }
  return bands;
}

std::vector<Vec3> monkhorst_pack_grid(const Cell& cell, int n1, int n2, int n3,
                                      bool gamma_centered) {
  TBMD_REQUIRE(n1 >= 1 && n2 >= 1 && n3 >= 1, "monkhorst_pack: bad grid");
  std::vector<Vec3> kpts;
  kpts.reserve(static_cast<std::size_t>(n1) * n2 * n3);
  auto coord = [&](int r, int q) {
    return gamma_centered
               ? static_cast<double>(r) / q
               : (2.0 * r - q + 1.0) / (2.0 * q);
  };
  for (int r1 = 0; r1 < n1; ++r1) {
    for (int r2 = 0; r2 < n2; ++r2) {
      for (int r3 = 0; r3 < n3; ++r3) {
        kpts.push_back(fractional_to_k(
            cell, {coord(r1, n1), coord(r2, n2), coord(r3, n3)}));
      }
    }
  }
  return kpts;
}

KGridResult kgrid_band_energy(const TbModel& model, const System& system,
                              const std::vector<Vec3>& kpts, int electrons) {
  TBMD_REQUIRE(!kpts.empty(), "kgrid_band_energy: empty k grid");
  TBMD_REQUIRE(electrons >= 0, "kgrid_band_energy: negative electron count");

  // Collect the sampled spectrum; every level carries weight 2/Nk.
  std::vector<double> levels;
  levels.reserve(kpts.size() * orbital_count(model, system));
  for (const Vec3& k : kpts) {
    const auto eps = bloch_eigenvalues(model, system, k);
    levels.insert(levels.end(), eps.begin(), eps.end());
  }
  std::sort(levels.begin(), levels.end());

  const double nk = static_cast<double>(kpts.size());
  const double per_level = 2.0 / nk;  // spin / k-weight
  const double target = static_cast<double>(electrons);

  KGridResult out;
  double filled = 0.0;
  std::size_t q = 0;
  for (; q < levels.size() && filled + per_level <= target + 1e-12; ++q) {
    out.band_energy += per_level * levels[q];
    filled += per_level;
  }
  if (filled < target - 1e-12 && q < levels.size()) {
    out.band_energy += (target - filled) * levels[q];  // fractional HOMO
    out.fermi_level = levels[q];
    out.gap = 0.0;
  } else {
    const double homo = (q > 0) ? levels[q - 1] : 0.0;
    const double lumo = (q < levels.size()) ? levels[q] : homo;
    out.fermi_level = 0.5 * (homo + lumo);
    out.gap = std::max(0.0, lumo - homo);
  }
  return out;
}

}  // namespace tbmd::tb
