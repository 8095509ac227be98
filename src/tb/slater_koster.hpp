#pragma once

/// \file slater_koster.hpp
/// \brief Two-center Slater-Koster blocks (s, sp and spd species) and their
/// analytic derivatives with respect to the bond vector.
///
/// Orbital order within an atom:
///   [s, p_x, p_y, p_z, d_xy, d_yz, d_zx, d_{x2-y2}, d_{3z2-r2}]
/// truncated to the species' orbital count (1, 4 or 9).
///
/// For a bond vector d = r_j - r_i with length r and direction cosines
/// u = d/r, the s and p shells of the block B(alpha, beta) =
/// <i,alpha| H |j,beta> are
///   B(s , s ) =  V_sss(r)
///   B(s , pb) =  u_b V_sps(r)
///   B(pa, s ) = -u_a V_pss(r)
///   B(pa, pb) =  u_a u_b (V_pps(r) - V_ppp(r)) + delta_ab V_ppp(r)
/// where all integrals of a pair share its radial scaling s(r):
/// V_x(r) = V_x(r0) * s(r).  These four shell blocks and their derivatives
/// are evaluated in closed form.
///
/// Shell blocks that touch a d shell follow the full spd table of Slater &
/// Koster (1954).  Those with the bra shell higher than the ket shell are
/// evaluated through the Hermiticity identity B_{beta alpha}(u) =
/// B~_{alpha beta}(-u), with B~ drawing on the reversed-slot integrals
/// (pss, dss, dps, dpp) of the ordered pair -- so an A-B block is always
/// the transpose of the B-A block of the reversed bond, which the
/// heteronuclear regression tests assert.

#include "src/geom/vec3.hpp"
#include "src/tb/radial.hpp"
#include "src/tb/tb_model.hpp"

namespace tbmd::tb {

/// Write the bsi x bsj hopping block of the ordered pair (bra species with
/// bsi orbitals, ket species with bsj orbitals) for bond vector `bond` =
/// r_j - r_i of length r into `h` (row-major, bsi * bsj doubles, layout
/// [alpha][beta]) and, when `d` is non-null, the three derivative blocks
/// dB/dd_gamma into `d` (3 * bsi * bsj doubles, layout
/// [gamma][alpha][beta]).  All integrals share the pair's radial scaling;
/// zero-fills at or beyond its cutoff.  The derivatives are analytic (the
/// d-shell angular table is evaluated in first-order dual numbers over the
/// direction cosines).  BondTable streams through this to build its
/// structure-of-arrays storage without intermediate copies.
void sk_pair_block_into(const PairParams& pair, int bsi, int bsj,
                        const Vec3& bond, double r, double* h, double* d);

}  // namespace tbmd::tb
