#include "src/tb/forces.hpp"

#include "src/tb/bond_table.hpp"
#include "src/util/error.hpp"

namespace tbmd::tb {

std::vector<Vec3> band_forces(const BondTable& table, const linalg::Matrix& rho,
                              Mat3* virial) {
  TBMD_REQUIRE(table.has_derivatives(),
               "band_forces: bond table was built without derivatives");
  const std::size_t n = table.atoms();
  const std::size_t norb = table.orbital_count();
  TBMD_REQUIRE(rho.rows() == norb && rho.cols() == norb,
               "band_forces: density matrix size mismatch");
  std::vector<Vec3> forces(n, Vec3{});
  if (table.size() == 0) return forces;

  // Two-pass contraction, bit-identical at any OMP_NUM_THREADS: pass 1
  // computes each bond's dE/dd once (owned by its i endpoint in the
  // neighbor-sorted adjacency) into a per-bond slot plus a per-atom virial
  // partial, pass 2 gathers each atom's force over its full adjacency in
  // sorted neighbor order, and the virial is summed serially in atom
  // order.  Every slot has exactly one writer, so no summation order
  // depends on the thread partition -- and the atom-indexed walk (rather
  // than the flat bond list, whose count tracks the Verlet rebuild
  // history) keeps forces a pure function of positions across checkpoint
  // kill-and-resume.
  std::vector<Vec3> dedd_bond(table.size(), Vec3{});
  std::vector<Mat3> watom(virial != nullptr ? n : 0, Mat3{});

#pragma omp parallel for schedule(static)
  for (std::size_t atom = 0; atom < n; ++atom) {
    Mat3 wacc{};
    for (const BondTable::AtomBond* nb = table.atom_begin(atom);
         nb != table.atom_end(atom); ++nb) {
      if (nb->transposed != 0) continue;  // count each bond once
      const std::size_t p = nb->bond;
      if (table.hopping_zero(p)) continue;  // skin-only pair: dB/dd == 0

      // dE/dd_g = 2 sum_ab rho(i a, j b) dB(a,b)/dd_g.  Gather the bond's
      // density block once, then contract the three contiguous derivative
      // blocks against it (at most 9 x 9 = 81 entries).
      const std::size_t oi = table.orbital_offset(table.i(p));
      const std::size_t oj = table.orbital_offset(table.j(p));
      const int bsi = table.orbs_i(p);
      const int bsj = table.orbs_j(p);
      const int sz_b = bsi * bsj;
      double rb[81];
      const double* d = table.derivative(p, 0);  // [gamma][alpha][beta]
      Vec3 dedd{};
      double sx = 0.0, sy = 0.0, sz = 0.0;
      for (int a = 0; a < bsi; ++a) {
        const double* rrow = rho.row(oi + a) + oj;
        for (int b = 0; b < bsj; ++b) rb[bsj * a + b] = rrow[b];
      }
      for (int ab = 0; ab < sz_b; ++ab) {
        sx += rb[ab] * d[ab];
        sy += rb[ab] * d[sz_b + ab];
        sz += rb[ab] * d[2 * sz_b + ab];
      }
      dedd.x = 2.0 * sx;
      dedd.y = 2.0 * sy;
      dedd.z = 2.0 * sz;

      // d = r_j - r_i  =>  F_j -= dE/dd, F_i += dE/dd (applied in pass 2).
      dedd_bond[p] = dedd;
      if (virial != nullptr) wacc -= outer(table.bond(p), dedd);  // d (x) f_on_j
    }
    if (virial != nullptr) watom[atom] = wacc;
  }

  gather_bond_forces(table, dedd_bond, watom, forces, virial);
  return forces;
}

std::vector<Vec3> band_forces(const TbModel& model, const System& system,
                              const NeighborList& list,
                              const linalg::Matrix& rho, Mat3* virial) {
  BondTable table;
  table.build(model, system, list, BondTable::Mode::kBlocksAndDerivatives);
  return band_forces(table, rho, virial);
}

}  // namespace tbmd::tb
