#include "src/tb/tb_model.hpp"

#include <algorithm>
#include <utility>

#include "src/util/error.hpp"
#include "src/util/string_util.hpp"

namespace tbmd::tb {

PairParams PairParams::reversed() const {
  PairParams r = *this;
  std::swap(r.integrals.sps, r.integrals.pss);
  std::swap(r.integrals.sds, r.integrals.dss);
  std::swap(r.integrals.pds, r.integrals.dps);
  std::swap(r.integrals.pdp, r.integrals.dpp);
  return r;
}

int TbModel::species_index(Element e) const {
  for (std::size_t s = 0; s < species.size(); ++s) {
    if (species[s].element == e) return static_cast<int>(s);
  }
  return -1;
}

int TbModel::orbitals(std::size_t s) const {
  TBMD_REQUIRE(s < species.size(), "TbModel::orbitals: species out of range");
  return species[s].orbitals;
}

double TbModel::onsite_energy(std::size_t s, int orb) const {
  TBMD_REQUIRE(s < species.size(),
               "TbModel::onsite_energy: species out of range");
  const SpeciesParams& sp = species[s];
  if (orb == 0) return sp.e_s;
  if (orb < 4) return sp.e_p;
  return sp.e_d;
}

const PairParams& TbModel::pair(std::size_t bra, std::size_t ket) const {
  const std::size_t ns = species.size();
  TBMD_REQUIRE(bra < ns && ket < ns, "TbModel::pair: species out of range");
  return pairs[bra * ns + ket];
}

void TbModel::set_species(std::vector<SpeciesParams> table) {
  for (const SpeciesParams& s : table) {
    TBMD_REQUIRE(s.orbitals == 1 || s.orbitals == 4 || s.orbitals == 9,
                 "TbModel::set_species: orbitals must be 1 (s), 4 (sp) or "
                 "9 (spd)");
  }
  species = std::move(table);
  pairs.assign(species.size() * species.size(), PairParams{});
}

void TbModel::set_pair(std::size_t bra, std::size_t ket, const PairParams& p) {
  const std::size_t ns = species.size();
  TBMD_REQUIRE(bra < ns && ket < ns, "TbModel::set_pair: species out of range");
  PairParams forward = p;
  if (bra == ket) {
    // Homonuclear: the reversed-slot integrals are tied to the forward ones
    // by Hermiticity, so derive them instead of trusting the caller.
    forward.integrals.pss = forward.integrals.sps;
    forward.integrals.dss = forward.integrals.sds;
    forward.integrals.dps = forward.integrals.pds;
    forward.integrals.dpp = forward.integrals.pdp;
  }
  pairs[bra * ns + ket] = forward;
  if (bra != ket) pairs[ket * ns + bra] = forward.reversed();
}

double TbModel::cutoff() const {
  double c = 0.0;
  for (const PairParams& p : pairs) {
    c = std::max({c, p.hopping.r_cut, p.repulsive.r_cut});
  }
  return c;
}

TbModel xwch_carbon() {
  TbModel m;
  m.name = "xwch-carbon";
  SpeciesParams c;
  c.element = Element::C;
  c.orbitals = 4;
  c.e_s = -2.99;
  c.e_p = 3.71;
  m.set_species({c});

  PairParams p;
  p.integrals.sss = -5.0;
  p.integrals.sps = 4.7;
  p.integrals.pps = 5.5;
  p.integrals.ppp = -1.55;
  p.hopping.r0 = 1.536329;
  p.hopping.n = 2.0;
  p.hopping.nc = 6.5;
  p.hopping.rc = 2.18;
  p.hopping.r_taper = 2.45;
  p.hopping.r_cut = 2.6;

  m.repulsion_kind = RepulsionKind::kEmbeddedPolynomial;
  p.phi0 = 8.18555;
  p.repulsive.r0 = 1.64;  // d0
  p.repulsive.n = 3.30304;   // m
  p.repulsive.nc = 8.6655;   // mc
  p.repulsive.rc = 2.1052;   // dc
  p.repulsive.r_taper = 2.45;
  p.repulsive.r_cut = 2.6;
  m.set_pair(0, 0, p);
  m.embed_coeff = {-2.5909765118191, 0.5721151498619, -1.7896349903996e-3,
                   2.3539221516757e-5, -1.24251169551587e-7};
  return m;
}

TbModel gsp_silicon() {
  TbModel m;
  m.name = "gsp-silicon";
  SpeciesParams si;
  si.element = Element::Si;
  si.orbitals = 4;
  si.e_s = -5.25;
  si.e_p = 1.20;
  m.set_species({si});

  PairParams p;
  p.integrals.sss = -1.938;
  p.integrals.sps = 1.745;
  p.integrals.pps = 3.050;
  p.integrals.ppp = -1.075;
  p.hopping.r0 = 2.360352;
  p.hopping.n = 2.0;
  p.hopping.nc = 6.48;
  p.hopping.rc = 3.67;
  p.hopping.r_taper = 3.4;
  p.hopping.r_cut = 3.8;

  m.repulsion_kind = RepulsionKind::kPairSum;
  p.phi0 = 3.4581;
  p.repulsive.r0 = 2.360352;
  p.repulsive.n = 4.54;
  p.repulsive.nc = 6.48;
  p.repulsive.rc = 3.67;
  p.repulsive.r_taper = 3.4;
  p.repulsive.r_cut = 3.8;
  m.set_pair(0, 0, p);
  return m;
}

TbModel kirchhoff_gold() {
  TbModel m;
  m.name = "kirchhoff-gold";
  m.repulsion_kind = RepulsionKind::kPairSum;

  SpeciesParams au;
  au.element = Element::Au;
  au.orbitals = 9;
  au.e_s = -4.90;
  au.e_p = 1.50;
  au.e_d = -7.80;
  m.set_species({au});

  // Two-center integrals at the fcc nearest-neighbor distance (a = 4.08 A
  // -> r0 = 2.885 A).  Magnitudes follow the canonical Au two-center
  // picture: a broad free-electron-like s band crossing a narrow, nearly
  // filled d band ~3 eV below the s on-site level.
  PairParams p;
  p.integrals.sss = -0.90;
  p.integrals.sps = 1.20;
  p.integrals.pps = 2.30;
  p.integrals.ppp = -0.30;
  p.integrals.sds = -0.75;
  p.integrals.pds = -0.95;
  p.integrals.pdp = 0.25;
  p.integrals.dds = -0.62;
  p.integrals.ddp = 0.32;
  p.integrals.ddd = -0.05;
  p.hopping.r0 = 2.885;
  p.hopping.n = 4.0;
  p.hopping.nc = 6.0;
  p.hopping.rc = 3.40;
  p.hopping.r_taper = 3.50;
  p.hopping.r_cut = 3.90;  // between 1st (2.885) and 2nd (4.08) fcc shells

  // Calibrated so bulk fcc Au is in mechanical equilibrium at the
  // experimental lattice constant: phi0 = -(dE_band/da) / (dS_rep/da) at
  // a = 4.08 A (3x3x3 fcc supercell, T_el = 300 K), which puts the E(a)
  // minimum at 4.077 A with positive curvature and a cohesive energy of
  // ~2.5 eV/atom relative to the free-atom (10 e_d + e_s) reference.
  p.phi0 = 1.4677;
  p.repulsive.r0 = 2.885;
  p.repulsive.n = 9.0;  // steeper than the n = 4 hopping decay
  p.repulsive.nc = 6.0;
  p.repulsive.rc = 3.40;
  p.repulsive.r_taper = 3.50;
  p.repulsive.r_cut = 3.90;
  m.set_pair(0, 0, p);
  return m;
}

TbModel model_by_name(const std::string& name) {
  const std::string n = to_lower(name);
  if (n == "xwch-carbon" || n == "carbon" || n == "c") return xwch_carbon();
  if (n == "gsp-silicon" || n == "silicon" || n == "si") return gsp_silicon();
  if (n == "kirchhoff-gold" || n == "gold" || n == "au") {
    return kirchhoff_gold();
  }
  throw Error("model_by_name: unknown tight-binding model '" + name + "'");
}

}  // namespace tbmd::tb
