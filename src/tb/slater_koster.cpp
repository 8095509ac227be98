#include "src/tb/slater_koster.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace tbmd::tb {

namespace {

/// First-order dual number over the three direction cosines (l, m, n):
/// value plus gradient.  The spd angular table below is written once in
/// terms of these, so every entry's gradient w.r.t. u is produced by the
/// arithmetic itself instead of a hand-derived (and hand-maintained)
/// formula.  Only shell blocks that touch a d shell pay for this; the s
/// and p shells use the closed form in sp_shells().
struct D3 {
  double v = 0.0;
  double g[3] = {0.0, 0.0, 0.0};
};

inline D3 operator+(const D3& a, const D3& b) {
  return {a.v + b.v, {a.g[0] + b.g[0], a.g[1] + b.g[1], a.g[2] + b.g[2]}};
}
inline D3 operator-(const D3& a, const D3& b) {
  return {a.v - b.v, {a.g[0] - b.g[0], a.g[1] - b.g[1], a.g[2] - b.g[2]}};
}
inline D3 operator-(const D3& a) {
  return {-a.v, {-a.g[0], -a.g[1], -a.g[2]}};
}
inline D3 operator*(const D3& a, const D3& b) {
  return {a.v * b.v,
          {a.g[0] * b.v + a.v * b.g[0], a.g[1] * b.v + a.v * b.g[1],
           a.g[2] * b.v + a.v * b.g[2]}};
}
inline D3 operator*(double c, const D3& a) {
  return {c * a.v, {c * a.g[0], c * a.g[1], c * a.g[2]}};
}
inline D3 operator+(const D3& a, double c) {
  return {a.v + c, {a.g[0], a.g[1], a.g[2]}};
}
inline D3 operator+(double c, const D3& a) { return a + c; }
inline D3 operator-(const D3& a, double c) { return a + (-c); }
inline D3 operator-(double c, const D3& a) {
  return {c - a.v, {-a.g[0], -a.g[1], -a.g[2]}};
}

const double kSqrt3 = std::sqrt(3.0);

/// The five d angular functions multiplying V_sd_sigma, in the d-orbital
/// order [xy, yz, zx, x^2-y^2, 3z^2-r^2].  Even under u -> -u.
void sd_angular(const D3& l, const D3& m, const D3& n, D3 f[5]) {
  f[0] = kSqrt3 * (l * m);
  f[1] = kSqrt3 * (m * n);
  f[2] = kSqrt3 * (n * l);
  f[3] = 0.5 * kSqrt3 * (l * l - m * m);
  f[4] = n * n - 0.5 * (l * l + m * m);
}

/// The 3 x 5 p-d block for given sigma/pi integrals (Slater-Koster table).
void pd_angular(const D3& l, const D3& m, const D3& n, double vs, double vp,
                D3 f[3][5]) {
  const D3 l2 = l * l, m2 = m * m, n2 = n * n;
  const D3 lmn = l * (m * n);
  const D3 lm_sq = l2 - m2;              // l^2 - m^2
  const D3 zpart = n2 - 0.5 * (l2 + m2);  // n^2 - (l^2 + m^2)/2
  // Row p_x.
  f[0][0] = vs * (kSqrt3 * (l2 * m)) + vp * (m * (1.0 - 2.0 * l2));
  f[0][1] = vs * (kSqrt3 * lmn) + vp * (-2.0 * lmn);
  f[0][2] = vs * (kSqrt3 * (l2 * n)) + vp * (n * (1.0 - 2.0 * l2));
  f[0][3] = vs * (0.5 * kSqrt3 * (l * lm_sq)) + vp * (l * ((1.0 - l2) + m2));
  f[0][4] = vs * (l * zpart) + vp * (-kSqrt3 * (l * n2));
  // Row p_y.
  f[1][0] = vs * (kSqrt3 * (m2 * l)) + vp * (l * (1.0 - 2.0 * m2));
  f[1][1] = vs * (kSqrt3 * (m2 * n)) + vp * (n * (1.0 - 2.0 * m2));
  f[1][2] = vs * (kSqrt3 * lmn) + vp * (-2.0 * lmn);
  f[1][3] = vs * (0.5 * kSqrt3 * (m * lm_sq)) - vp * (m * ((1.0 + l2) - m2));
  f[1][4] = vs * (m * zpart) + vp * (-kSqrt3 * (m * n2));
  // Row p_z.
  f[2][0] = vs * (kSqrt3 * lmn) + vp * (-2.0 * lmn);
  f[2][1] = vs * (kSqrt3 * (n2 * m)) + vp * (m * (1.0 - 2.0 * n2));
  f[2][2] = vs * (kSqrt3 * (n2 * l)) + vp * (l * (1.0 - 2.0 * n2));
  f[2][3] = vs * (0.5 * kSqrt3 * (n * lm_sq)) - vp * (n * lm_sq);
  f[2][4] = vs * (n * zpart) + vp * (kSqrt3 * (n * (l2 + m2)));
}

/// The symmetric 5 x 5 d-d block (even under u -> -u).
void dd_angular(const D3& l, const D3& m, const D3& n, double vs, double vp,
                double vd, D3 f[5][5]) {
  const D3 l2 = l * l, m2 = m * m, n2 = n * n;
  const D3 lm = l * m, mn = m * n, nl = n * l;
  const D3 lm_sq = l2 - m2;
  const D3 zpart = n2 - 0.5 * (l2 + m2);
  f[0][0] = vs * (3.0 * (l2 * m2)) + vp * ((l2 + m2) - 4.0 * (l2 * m2)) +
            vd * (n2 + l2 * m2);
  f[0][1] = vs * (3.0 * (lm * mn)) + vp * (nl * (1.0 - 4.0 * m2)) +
            vd * (nl * (m2 - 1.0));
  f[0][2] = vs * (3.0 * (lm * nl)) + vp * (mn * (1.0 - 4.0 * l2)) +
            vd * (mn * (l2 - 1.0));
  f[0][3] = vs * (1.5 * (lm * lm_sq)) + vp * (-2.0 * (lm * lm_sq)) +
            vd * (0.5 * (lm * lm_sq));
  f[0][4] = vs * (kSqrt3 * (lm * zpart)) + vp * (-2.0 * kSqrt3 * (lm * n2)) +
            vd * (0.5 * kSqrt3 * (lm * (n2 + 1.0)));
  f[1][1] = vs * (3.0 * (m2 * n2)) + vp * ((m2 + n2) - 4.0 * (m2 * n2)) +
            vd * (l2 + m2 * n2);
  f[1][2] = vs * (3.0 * (mn * nl)) + vp * (lm * (1.0 - 4.0 * n2)) +
            vd * (lm * (n2 - 1.0));
  f[1][3] = vs * (1.5 * (mn * lm_sq)) +
            vp * (-1.0 * (mn * (1.0 + 2.0 * lm_sq))) +
            vd * (mn * (0.5 * lm_sq + 1.0));
  f[1][4] = vs * (kSqrt3 * (mn * zpart)) +
            vp * (kSqrt3 * (mn * ((l2 + m2) - n2))) +
            vd * (-0.5 * kSqrt3 * (mn * (l2 + m2)));
  f[2][2] = vs * (3.0 * (n2 * l2)) + vp * ((n2 + l2) - 4.0 * (n2 * l2)) +
            vd * (m2 + n2 * l2);
  f[2][3] = vs * (1.5 * (nl * lm_sq)) + vp * (nl * (1.0 - 2.0 * lm_sq)) +
            vd * (-1.0 * (nl * (1.0 - 0.5 * lm_sq)));
  f[2][4] = vs * (kSqrt3 * (nl * zpart)) +
            vp * (kSqrt3 * (nl * ((l2 + m2) - n2))) +
            vd * (-0.5 * kSqrt3 * (nl * (l2 + m2)));
  f[3][3] = vs * (0.75 * (lm_sq * lm_sq)) +
            vp * ((l2 + m2) - lm_sq * lm_sq) +
            vd * (n2 + 0.25 * (lm_sq * lm_sq));
  f[3][4] = vs * (0.5 * kSqrt3 * (lm_sq * zpart)) +
            vp * (-kSqrt3 * (n2 * lm_sq)) +
            vd * (0.25 * kSqrt3 * ((n2 + 1.0) * lm_sq));
  f[4][4] = vs * (zpart * zpart) + vp * (3.0 * (n2 * (l2 + m2))) +
            vd * (0.75 * ((l2 + m2) * (l2 + m2)));
  for (int a = 1; a < 5; ++a) {
    for (int b = 0; b < a; ++b) f[a][b] = f[b][a];
  }
}

/// The s and p shell blocks of a bsi x bsj block in closed form (the
/// header's formulas): `ni`, `nj` (1 or 4) are the s/p orbitals on each
/// end, `ld` the block's row stride (bsj) and `sz` its size.
void sp_shells(const SkIntegrals& v, int ni, int nj, int ld, std::size_t sz,
               const double u[3], double r, const RadialValue& s, double* h,
               double* d) {
  double a[4][4];
  a[0][0] = v.sss;
  for (int b = 0; b < 3; ++b) {
    a[0][b + 1] = u[b] * v.sps;
    a[b + 1][0] = -u[b] * v.pss;
  }
  const double dv = v.pps - v.ppp;
  for (int p = 0; p < 3; ++p) {
    for (int q = 0; q < 3; ++q) {
      a[p + 1][q + 1] = u[p] * u[q] * dv + (p == q ? v.ppp : 0.0);
    }
  }
  for (int i = 0; i < ni; ++i) {
    for (int j = 0; j < nj; ++j) h[ld * i + j] = s.value * a[i][j];
  }
  if (d == nullptr) return;

  // dB/dd_g = s'(r) u_g A + s(r) dA/dd_g, with
  // du_a/dd_g = (delta_ag - u_a u_g) / r.
  for (int g = 0; g < 3; ++g) {
    double* dg = d + sz * static_cast<std::size_t>(g);
    // Radial part.
    const double sg = s.derivative * u[g];
    for (int i = 0; i < ni; ++i) {
      for (int j = 0; j < nj; ++j) dg[ld * i + j] = sg * a[i][j];
    }
    // Angular part.
    auto du = [&](int c) { return ((c == g ? 1.0 : 0.0) - u[c] * u[g]) / r; };
    if (nj == 4) {
      for (int b = 0; b < 3; ++b) dg[b + 1] += s.value * v.sps * du(b);
    }
    if (ni == 4) {
      for (int b = 0; b < 3; ++b) dg[ld * (b + 1)] -= s.value * v.pss * du(b);
    }
    if (ni == 4 && nj == 4) {
      for (int p = 0; p < 3; ++p) {
        for (int q = 0; q < 3; ++q) {
          dg[ld * (p + 1) + q + 1] +=
              s.value * dv * (du(p) * u[q] + u[p] * du(q));
        }
      }
    }
  }
}

/// The shell blocks that touch a d shell (s-d, p-d, d-s, d-p, d-d) of a
/// bsi x bsj block with bsi == 9 or bsj == 9, from the dual-number tables
/// above.  Blocks with the bra angular momentum above the ket's are
/// produced by the Hermiticity identity B_{beta alpha}(u) =
/// B~_{alpha beta}(-u) with the reversed-slot integrals, so transpose
/// consistency of the two bond orderings holds by construction.
void d_shells(const SkIntegrals& v, int bsi, int bsj, std::size_t sz,
              const double u[3], double r, const RadialValue& s, double* h,
              double* d) {
  const D3 l = {u[0], {1.0, 0.0, 0.0}};
  const D3 m = {u[1], {0.0, 1.0, 0.0}};
  const D3 n = {u[2], {0.0, 0.0, 1.0}};
  const D3 lr = -l, mr = -m, nr = -n;  // reversed bond direction

  D3 a[9][9];
  if (bsj == 9) {
    D3 f[5];
    sd_angular(l, m, n, f);
    for (int b = 0; b < 5; ++b) a[0][4 + b] = v.sds * f[b];
    if (bsi >= 4) {
      D3 g[3][5];
      pd_angular(l, m, n, v.pds, v.pdp, g);
      for (int p = 0; p < 3; ++p) {
        for (int b = 0; b < 5; ++b) a[1 + p][4 + b] = g[p][b];
      }
    }
  }
  if (bsi == 9) {
    D3 f[5];
    sd_angular(lr, mr, nr, f);
    for (int b = 0; b < 5; ++b) a[4 + b][0] = v.dss * f[b];
    if (bsj >= 4) {
      D3 g[3][5];
      pd_angular(lr, mr, nr, v.dps, v.dpp, g);
      for (int p = 0; p < 3; ++p) {
        for (int b = 0; b < 5; ++b) a[4 + b][1 + p] = g[p][b];
      }
    }
    if (bsj == 9) {
      D3 e[5][5];
      dd_angular(l, m, n, v.dds, v.ddp, v.ddd, e);
      for (int p = 0; p < 5; ++p) {
        for (int q = 0; q < 5; ++q) a[4 + p][4 + q] = e[p][q];
      }
    }
  }

  // dB/dd_g = s'(r) u_g A + s(r) sum_a (dA/du_a)(delta_ag - u_a u_g) / r:
  // the projector removes the radial component of the cosine gradient.
  // Rows of the s/p shells carry d entries only from column 4 on.
  for (int i = 0; i < bsi; ++i) {
    for (int j = i < 4 ? 4 : 0; j < bsj; ++j) {
      const D3& e = a[i][j];
      h[bsj * i + j] = s.value * e.v;
      if (d == nullptr) continue;
      const double gu = e.g[0] * u[0] + e.g[1] * u[1] + e.g[2] * u[2];
      for (int g = 0; g < 3; ++g) {
        d[sz * static_cast<std::size_t>(g) + bsj * i + j] =
            s.derivative * u[g] * e.v + s.value * (e.g[g] - gu * u[g]) / r;
      }
    }
  }
}

}  // namespace

void sk_pair_block_into(const PairParams& pair, int bsi, int bsj,
                        const Vec3& bond, double r, double* h, double* d) {
  const std::size_t sz = static_cast<std::size_t>(bsi * bsj);
  const RadialValue s = evaluate_scaling(pair.hopping, r);
  if (s.value == 0.0 && s.derivative == 0.0) {
    std::memset(h, 0, sz * sizeof(double));
    if (d != nullptr) std::memset(d, 0, 3 * sz * sizeof(double));
    return;
  }

  const double u[3] = {bond.x / r, bond.y / r, bond.z / r};
  sp_shells(pair.integrals, std::min(bsi, 4), std::min(bsj, 4), bsj, sz, u, r,
            s, h, d);
  if (bsi == 9 || bsj == 9) {
    d_shells(pair.integrals, bsi, bsj, sz, u, r, s, h, d);
  }
}

}  // namespace tbmd::tb
