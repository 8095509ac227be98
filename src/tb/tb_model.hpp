#pragma once

/// \file tb_model.hpp
/// \brief Orthogonal two-center tight-binding model definitions.
///
/// A TbModel bundles everything the Hamiltonian builder and force engine
/// need: a species table (element, orbital count and on-site energies per
/// species) and an ordered-pair table holding each pair's Slater-Koster
/// integrals at the reference distance, their Goodwin-Skinner-Pettifor
/// radial scaling and the repulsive pair function.  Every model -- one
/// element or several, s, sp or spd -- is described this way.
///
/// Shipped parameterizations:
///   * xwch_carbon()    - Xu, Wang, Chan & Ho, J. Phys.: Condens. Matter 4,
///                        6047 (1992): orthogonal sp3 carbon with an
///                        embedded-polynomial repulsion.
///   * gsp_silicon()    - Goodwin, Skinner & Pettifor, Europhys. Lett. 9,
///                        701 (1989): orthogonal sp3 silicon with a pair-sum
///                        repulsion.
///   * kirchhoff_gold() - orthogonal spd gold (see its declaration).
///
/// All models truncate their radial functions with a smooth C^1 cutoff
/// taper between r_taper and r_cut (the original papers splice polynomial
/// tails over a similar window; the cohesion checks in
/// tests/test_tb_forces.cpp and bench/exp_t1_cohesive.cpp validate the
/// substitution).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/element.hpp"

namespace tbmd::tb {

/// Goodwin-Skinner-Pettifor radial scaling
///   s(r) = (r0/r)^n * exp( n * ( -(r/rc)^nc + (r0/rc)^nc ) )
/// multiplied by a smooth cutoff taper on [r_taper, r_cut].
struct RadialScaling {
  double r0 = 1.0;      ///< reference distance (A)
  double n = 2.0;       ///< power-law exponent
  double nc = 6.5;      ///< screening exponent
  double rc = 2.18;     ///< screening length (A)
  double r_taper = 2.45;  ///< taper start (A)
  double r_cut = 2.6;     ///< hard cutoff (A)
};

/// How the repulsive energy is assembled from the pair function phi(r).
enum class RepulsionKind {
  kPairSum,             ///< E_rep = sum_{i<j} phi(r_ij)            (GSP)
  kEmbeddedPolynomial,  ///< E_rep = sum_i f( sum_j phi(r_ij) )     (XWCH)
};

/// The full set of two-center Slater-Koster integrals an spd x spd pair can
/// carry, at the pair's reference distance hopping.r0 (eV).  The first
/// letter is the bra shell (on the bond's *first* atom), the second the ket
/// shell (on the second atom), the third the bond symmetry -- so for an
/// ordered pair A->B, `sps` couples A's s to B's p while `pss` couples A's
/// p to B's s.  Shells a species does not have simply leave their entries
/// at zero.  Hermiticity ties the two orderings of a pair together
/// (PairParams::reversed()); for a homonuclear pair that reduces to
/// pss == sps, dss == sds, dps == pds, dpp == pdp.
struct SkIntegrals {
  double sss = 0.0;  ///< V_ss_sigma
  double sps = 0.0;  ///< V_sp_sigma (bra s, ket p)
  double pss = 0.0;  ///< V_ps_sigma (bra p, ket s)
  double pps = 0.0;  ///< V_pp_sigma
  double ppp = 0.0;  ///< V_pp_pi
  double sds = 0.0;  ///< V_sd_sigma (bra s, ket d)
  double dss = 0.0;  ///< V_ds_sigma (bra d, ket s)
  double pds = 0.0;  ///< V_pd_sigma (bra p, ket d)
  double pdp = 0.0;  ///< V_pd_pi
  double dps = 0.0;  ///< V_dp_sigma (bra d, ket p)
  double dpp = 0.0;  ///< V_dp_pi
  double dds = 0.0;  ///< V_dd_sigma
  double ddp = 0.0;  ///< V_dd_pi
  double ddd = 0.0;  ///< V_dd_delta
};

/// One species of a model: which element it represents, how
/// many orbitals it carries (1 = s, 4 = sp, 9 = spd; this is the BSR block
/// dimension of its atoms) and the on-site energies of the shells present.
struct SpeciesParams {
  Element element = Element::C;
  int orbitals = 4;   ///< 1 (s-only), 4 (sp) or 9 (spd)
  double e_s = 0.0;   ///< on-site s energy (eV)
  double e_p = 0.0;   ///< on-site p energy (eV; orbitals >= 4)
  double e_d = 0.0;   ///< on-site d energy (eV; orbitals == 9)
};

/// Interaction parameters of one *ordered* species pair (bra, ket): the SK
/// integrals at hopping.r0, their shared GSP radial scaling, and the
/// repulsive pair function phi(r) = phi0 * s_rep(r).  The repulsive part is
/// symmetric in the two species by construction; the hopping integrals of
/// the reversed ordering follow from Hermiticity via reversed().
struct PairParams {
  SkIntegrals integrals;
  RadialScaling hopping;
  double phi0 = 0.0;        ///< repulsive prefactor (eV)
  RadialScaling repulsive;  ///< scaling of phi

  /// Parameters of the reversed ordering (B, A): the mixed-shell integral
  /// slots swap (sps <-> pss, sds <-> dss, pds <-> dps, pdp <-> dpp); the
  /// symmetric slots and the radial/repulsive parts are shared.  The sign
  /// conventions of odd-parity blocks are handled by the SK evaluator, not
  /// here (see sk_pair_block_into).
  [[nodiscard]] PairParams reversed() const;
};

/// Complete tight-binding model: a species table (each species with its own
/// orbital count, 1/4/9) plus an ns x ns table of ordered-pair parameters
/// with heteronuclear SK integrals.  Populated via set_species()/set_pair();
/// pair (j, i) is derived from (i, j) by Hermiticity automatically.
struct TbModel {
  std::string name;

  /// Model-wide repulsion assembly; kEmbeddedPolynomial needs a
  /// one-species table (the polynomial has no per-species coefficients).
  RepulsionKind repulsion_kind = RepulsionKind::kPairSum;
  /// Embedding polynomial f(x) = sum_k coeff[k] x^k (kEmbeddedPolynomial).
  std::array<double, 5> embed_coeff{0, 1, 0, 0, 0};

  std::vector<SpeciesParams> species;
  /// Ordered-pair table, row-major [bra * species_count() + ket]; sized by
  /// set_species().
  std::vector<PairParams> pairs;

  [[nodiscard]] std::size_t species_count() const { return species.size(); }

  /// Species-table index of an element, or -1 when the model has no
  /// parameters for it.
  [[nodiscard]] int species_index(Element e) const;

  /// Orbitals per atom of species `s` (1, 4 or 9).
  [[nodiscard]] int orbitals(std::size_t s) const;

  /// On-site energy of orbital `orb` (0 = s, 1..3 = p, 4..8 = d) of
  /// species `s`.
  [[nodiscard]] double onsite_energy(std::size_t s, int orb) const;

  /// Ordered-pair parameters (bra species, ket species).
  [[nodiscard]] const PairParams& pair(std::size_t bra, std::size_t ket) const;

  /// Define the species table (resizes the pair table to ns x ns).
  void set_species(std::vector<SpeciesParams> table);

  /// Set the parameters of ordered pair (bra, ket); (ket, bra) is filled
  /// with p.reversed() so Hermiticity holds by construction.
  void set_pair(std::size_t bra, std::size_t ket, const PairParams& p);

  /// Interaction cutoff: the largest hopping or repulsive radial cutoff
  /// over all pairs (A).
  [[nodiscard]] double cutoff() const;
};

/// Xu-Wang-Chan-Ho orthogonal sp3 carbon model.
[[nodiscard]] TbModel xwch_carbon();

/// Goodwin-Skinner-Pettifor orthogonal sp3 silicon model.
[[nodiscard]] TbModel gsp_silicon();

/// Orthogonal spd gold model in the spirit of Kirchhoff et al., Phys. Rev.
/// B 63, 195101 (2001): a 9-orbital species with GSP-scaled two-center spd
/// integrals and a steep pair-sum repulsion, cut off between the first and
/// second fcc neighbor shells.  The integrals are a compact refit around
/// canonical Au two-center values, not the published NRL tables.
[[nodiscard]] TbModel kirchhoff_gold();

/// Look up a shipped model by name ("xwch-carbon", "gsp-silicon",
/// "kirchhoff-gold").
[[nodiscard]] TbModel model_by_name(const std::string& name);

}  // namespace tbmd::tb
