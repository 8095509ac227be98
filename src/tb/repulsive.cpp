#include "src/tb/repulsive.hpp"

#include <cmath>

#include "src/tb/bond_table.hpp"
#include "src/tb/radial.hpp"
#include "src/util/error.hpp"

namespace tbmd::tb {

RepulsiveResult repulsive_energy_forces(const TbModel& model,
                                        const BondTable& table) {
  TBMD_REQUIRE(table.has_repulsive(),
               "repulsive_energy_forces: bond table was built without the "
               "repulsive pair values (Mode::kBlocks)");
  RepulsiveResult out;
  const std::size_t n = table.atoms();
  out.forces.assign(n, Vec3{});
  const std::size_t nb = table.size();
  if (nb == 0) return out;

  // Two-pass scheme (per-bond force slots in pass 1, per-atom adjacency
  // gather in pass 2): every slot has one writer and a fixed summation
  // order, so energies, forces and the virial are bit-identical at any
  // OMP_NUM_THREADS -- and across checkpoint kill-and-resume, where the
  // Verlet rebuild history would already rule out a flat bond-list
  // partition.
  std::vector<Vec3> fbond(nb, Vec3{});
  std::vector<Mat3> watom(n, Mat3{});

  if (model.repulsion_kind == RepulsionKind::kPairSum) {
    std::vector<double> eatom(n, 0.0);
#pragma omp parallel for schedule(static)
    for (std::size_t atom = 0; atom < n; ++atom) {
      double e = 0.0;
      Mat3 w{};
      for (const BondTable::AtomBond* ab = table.atom_begin(atom);
           ab != table.atom_end(atom); ++ab) {
        if (ab->transposed != 0) continue;  // compute each bond once
        const std::size_t p = ab->bond;
        const double der = table.repulsive_derivative(p);
        const double val = table.repulsive_value(p);
        if (val == 0.0 && der == 0.0) continue;  // at/beyond repulsive cutoff
        e += val;
        const Vec3 f = (der / table.length(p)) * table.bond(p);
        fbond[p] = f;
        w -= outer(table.bond(p), f);  // d (x) f_on_j with f_on_j = -f
      }
      eatom[atom] = e;
      watom[atom] = w;
    }
    gather_bond_forces(table, fbond, watom, out.forces, &out.virial);
    double energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) energy += eatom[i];
    out.energy = energy;
    return out;
  }

  // Embedded polynomial: E = sum_i f(x_i), x_i = sum_j phi(r_ij).  The
  // per-atom coordination sums walk the table's adjacency, so phi is never
  // re-evaluated (the table already holds it per bond).
  std::vector<double> x(n, 0.0);
#pragma omp parallel for schedule(dynamic, 32)
  for (std::size_t i = 0; i < n; ++i) {
    double xi = 0.0;
    for (const BondTable::AtomBond* ab = table.atom_begin(i);
         ab != table.atom_end(i); ++ab) {
      xi += table.repulsive_value(ab->bond);
    }
    x[i] = xi;
  }

  double energy = 0.0;
  std::vector<double> fprime(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const RadialValue fv = evaluate_polynomial(model.embed_coeff, x[i]);
    energy += fv.value;
    fprime[i] = fv.derivative;
  }

  // dE/dr_j = sum over bonds (i,j): (f'(x_i) + f'(x_j)) phi'(r) u.
#pragma omp parallel for schedule(static)
  for (std::size_t atom = 0; atom < n; ++atom) {
    Mat3 w{};
    for (const BondTable::AtomBond* ab = table.atom_begin(atom);
         ab != table.atom_end(atom); ++ab) {
      if (ab->transposed != 0) continue;  // compute each bond once
      const std::size_t p = ab->bond;
      const double der = table.repulsive_derivative(p);
      if (der == 0.0 && table.repulsive_value(p) == 0.0) continue;
      const double s =
          (fprime[table.i(p)] + fprime[table.j(p)]) * der / table.length(p);
      const Vec3 f = s * table.bond(p);
      fbond[p] = f;
      w -= outer(table.bond(p), f);
    }
    watom[atom] = w;
  }
  gather_bond_forces(table, fbond, watom, out.forces, &out.virial);
  out.energy = energy;
  return out;
}

RepulsiveResult repulsive_energy_forces(const TbModel& model,
                                        const System& system,
                                        const NeighborList& list) {
  BondTable table;
  table.build(model, system, list, BondTable::Mode::kRepulsiveOnly);
  return repulsive_energy_forces(model, table);
}

}  // namespace tbmd::tb
