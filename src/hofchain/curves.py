"""High-genus curve machinery for the L = 3 Hofstadter chain.

The N-th powers eta = xi_0^N, y = x^N satisfy a quadratic whose
coefficients come from a 2x2 matrix product of per-site polynomials; a
point of the curve W = (x, xi_0, xi_2) is completed to the full spectral
curve by the fiber coordinate xi_1 with xi_1^N = xi_0^{-N}.  Baxter
vectors on the full curve are tensor products of per-site null vectors;
averaging them over the fiber descends the transfer matrix to W.

Two fiber conventions are exposed, and they are not interchangeable:

* ``descent``: lifts xi_1 = omega^s / xi_0 with weight q^{-s(s+1)}.  The
  two-term shift relation for x^{-2} T(x) holds exactly.  Under this
  convention the site-0 null vector depends only on xi_0 xi_1, so the
  averaged family spans an N^2-dimensional subspace and the per-sector
  evaluation rank is N.
* ``evaluation``: averages over the xi_0-fiber twists (x, q^s xi_0,
  (q^s xi_0)^{-1}, xi_2) with weight q^{s^2}.  The evaluation pairing
  with each D-sector then has full rank N^2 (injectivity of epsilon_l),
  while the shift relation no longer descends termwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .weylcore import (POLE_TOL, Context, PoleError, relative_defect,
                       sector_orbits, unit_draws)
from .transfer import ChainParams, SiteParams, transfer_apply
from .bethe import ComplexPolynomial

W_TOL = 1e-9
RANK_RTOL = 1e-8


@dataclass(frozen=True)
class ABCDPolys:
    """Entries of prod_j (-a_j^N, y b_j^N; y c_j^N, -d_j^N) as y-polynomials."""

    A_poly: ComplexPolynomial
    B_poly: ComplexPolynomial
    C_poly: ComplexPolynomial
    D_poly: ComplexPolynomial


@dataclass(frozen=True)
class WPoint:
    """A point (x, xi_0, xi_2) on W with its defining-equation residuals."""

    x: complex
    xi0: complex
    xi2: complex
    residuals: tuple


@dataclass(frozen=True)
class HofstadterChain3:
    """L = 3 chain with site 0 frozen to a_0 = d_0 = 0, b_0 = c_0 = 1."""

    h1: SiteParams
    h2: SiteParams

    @property
    def h0(self) -> SiteParams:
        return SiteParams(0.0, 1.0, 1.0, 0.0)

    def chain_params(self) -> ChainParams:
        return ChainParams((self.h0, self.h1, self.h2))


def abcd_polys(chain: ChainParams, ctx: Context) -> ABCDPolys:
    """Expand the ordered 2x2 product of N-th power site matrices."""
    N = ctx.N

    def site(h):
        # each entry: polynomial in y, ascending coefficients, degree 1
        return [[np.array([-h.a**N, 0.0]), np.array([0.0, h.b**N])],
                [np.array([0.0, h.c**N]), np.array([-h.d**N, 0.0])]]

    def mult(P, Q):
        return [[np.convolve(P[i][0], Q[0][j]) + np.convolve(P[i][1], Q[1][j])
                 for j in range(2)] for i in range(2)]

    prod = reduce(mult, (site(h) for h in chain.sites))
    return ABCDPolys(A_poly=ComplexPolynomial.from_array(-prod[0][0]),
                     B_poly=ComplexPolynomial.from_array(prod[0][1]),
                     C_poly=ComplexPolynomial.from_array(prod[1][0]),
                     D_poly=ComplexPolynomial.from_array(-prod[1][1]))


def eta_roots(y: complex, chain: ChainParams, ctx: Context):
    """Roots of C(y) eta^2 + (A(y) - D(y)) eta - B(y) = 0."""
    p = abcd_polys(chain, ctx)
    Cv = p.C_poly(y)
    mid = p.A_poly(y) - p.D_poly(y)
    Bv = p.B_poly(y)
    scale = max(abs(Cv), abs(mid), abs(Bv), 1.0)
    if abs(Cv) < 1e-12 * scale:
        raise PoleError(f"leading coefficient C(y) degenerates at y={y}; "
                        "the fiber quadratic has a single root")
    r = np.roots(np.array([Cv, mid, -Bv]))
    return complex(r[0]), complex(r[1])


def w_residuals(x: complex, xi0: complex, xi2: complex,
                chain: HofstadterChain3, ctx: Context) -> tuple:
    """Relative defects of the two defining equations of W."""
    N = ctx.N
    h1, h2 = chain.h1, chain.h2
    y = x**N
    den1 = y * xi2**N * h1.c**N - h1.d**N
    den2 = y * xi0**N * h2.c**N - h2.d**N
    if abs(den1) < POLE_TOL or abs(den2) < POLE_TOL:
        raise PoleError("W defining-equation denominator vanishes")
    rhs1 = (-xi2**N * h1.a**N + y * h1.b**N) / den1
    rhs2 = (-xi0**N * h2.a**N + y * h2.b**N) / den2
    lhs1 = xi0**(-N)
    lhs2 = xi2**N
    r1 = abs(lhs1 - rhs1) / max(1.0, abs(lhs1), abs(rhs1))
    r2 = abs(lhs2 - rhs2) / max(1.0, abs(lhs2), abs(rhs2))
    return (float(r1), float(r2))


def _principal_root(z: complex, N: int) -> complex:
    return complex(np.exp(np.log(z) / N))


def sample_W(x: complex, chain: HofstadterChain3, ctx: Context) -> list:
    """All W-points over a given x: 2 eta branches x N x N root choices.

    eta = xi_0^N solves the fiber quadratic; xi_2^N follows from the
    second defining equation; both N-th root fibers are enumerated from
    the principal root.  Every returned point is residual-checked.
    """
    N = ctx.N
    if x == 0:
        raise PoleError("x = 0 is a pole of the W machinery")
    y = x**N
    cp = chain.chain_params()
    h1, h2 = chain.h1, chain.h2
    e1, e2 = eta_roots(y, cp, ctx)
    points = []
    for eta in (e1, e2):
        den = y * eta * h2.c**N - h2.d**N
        if abs(den) < POLE_TOL:
            raise PoleError("xi_2^N denominator vanishes")
        xi2N = (-eta * h2.a**N + y * h2.b**N) / den
        if abs(eta) < POLE_TOL or abs(xi2N) < POLE_TOL:
            raise PoleError("degenerate N-th power coordinate")
        xi0_base = _principal_root(eta, N)
        xi2_base = _principal_root(xi2N, N)
        for s in range(N):
            for t in range(N):
                xi0 = xi0_base * ctx.omega_pow(s)
                xi2 = xi2_base * ctx.omega_pow(t)
                res = w_residuals(x, xi0, xi2, chain, ctx)
                if max(res) > W_TOL:
                    raise RuntimeError(f"inconsistent W point: residuals {res}")
                points.append(WPoint(x=x, xi0=xi0, xi2=xi2, residuals=res))
    return points


def _site_null_vector(h: SiteParams, x, xi, xip, ctx: Context) -> np.ndarray:
    """Null vectors of F_h(x, xi, xi') by the ratio recursion, <0|p> = 1, one
    per entry of the broadcast x, xi, xip; a pole in any one of them raises."""
    N = ctx.N
    w = ctx.omega_pow(np.arange(1, N))
    x, xi, xip = (np.asarray(z, dtype=complex)[..., None] for z in (x, xi, xip))
    den = -xi * (xip * x * h.c * w - h.d)
    pole = np.nonzero(np.abs(den) < POLE_TOL)[-1]
    if pole.size:
        raise PoleError(f"null-vector ratio pole at component {1 + pole.min()}")
    num = xip * h.a * w - x * h.b
    v = np.ones(den.shape[:-1] + (N,), dtype=complex)
    for k in range(1, N):
        v[..., k] = v[..., k - 1] * num[..., k - 1] / den[..., k - 1]
    return v


def spectral_baxter(chain: HofstadterChain3, x: complex, xi0: complex,
                    xi1: complex, xi2: complex, ctx: Context) -> np.ndarray:
    """Baxter vector at a point of the full spectral curve (all four coords)."""
    v0 = _site_null_vector(chain.h0, x, xi0, xi1, ctx)
    v1 = _site_null_vector(chain.h1, x, xi1, xi2, ctx)
    v2 = _site_null_vector(chain.h2, x, xi2, xi0, ctx)
    return np.kron(np.kron(v0, v1), v2)


def _averaged_rows(points, chain: HofstadterChain3, ctx: Context,
                   convention: str = "descent") -> np.ndarray:
    """`averaged_baxter` of each point, one row each: the (point, lift) array
    of coordinates runs each site's recursion once, and the lift sum
    sum_s (w_s / N) v0_s (x) v1_s (x) v2_s is one batched matrix product."""
    N, s = ctx.N, np.arange(ctx.N)
    x, xi0, xi2 = (np.array([[getattr(p, c)] for p in points], dtype=complex)
                   for c in ("x", "xi0", "xi2"))
    if convention == "descent":       # xi_1 = omega^s / xi_0, q^{-s(s+1)}
        xi1 = ctx.omega_pow(s) / xi0
        weight = ctx.q_pow(-s * (s + 1))
    elif convention == "evaluation":  # xi_0 -> q^s xi_0, xi_1 = 1/xi_0, q^{s^2}
        xi0 = ctx.q_pow(s) * xi0
        xi1 = 1.0 / xi0
        weight = ctx.q_pow(s * s)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    v0 = _site_null_vector(chain.h0, x, xi0, xi1, ctx) * (weight / N)[:, None]
    v1 = _site_null_vector(chain.h1, x, xi1, xi2, ctx)
    v2 = np.broadcast_to(_site_null_vector(chain.h2, x, xi2, xi0, ctx), v1.shape)
    v01 = v0.transpose(0, 2, 1)[:, :, None] * v1.transpose(0, 2, 1)[:, None]
    return (v01.reshape(len(points), N * N, N) @ v2).reshape(len(points), N ** 3)


def averaged_baxter(p: WPoint, chain: HofstadterChain3, ctx: Context,
                    convention: str = "descent") -> np.ndarray:
    """Fiber-averaged Baxter vector |p> = (1/N) sum_s |p, s> weight(s); the
    module docstring gives the two conventions and what each satisfies."""
    return _averaged_rows([p], chain, ctx, convention)[0]


def descended_delta(p: WPoint, sign: int, chain: HofstadterChain3,
                    ctx: Context) -> complex:
    """The functions Delta~_+- of the descended transfer relation on W."""
    x, xi0, xi2 = p.x, p.xi0, p.xi2
    h1, h2 = chain.h1, chain.h2
    if sign == -1:
        if abs(x * xi0) < POLE_TOL:
            raise PoleError("Delta~_- pole at x xi_0 = 0")
        return ((x * xi2 * h1.c - h1.d) * (x * xi0 * h2.c - h2.d)) / (-x * xi0)
    if sign == 1:
        den = x * (xi2 * h1.a - x * h1.b) * (xi0 * h2.a - x * h2.b)
        if abs(den) < POLE_TOL:
            raise PoleError("Delta~_+ pole")
        return (xi2 * (h1.a * h1.d - x**2 * h1.b * h1.c)
                * (h2.a * h2.d - x**2 * h2.b * h2.c)) / den
    raise ValueError("sign must be +1 or -1")


def tau_W(p: WPoint, sign: int, chain: HofstadterChain3, ctx: Context) -> WPoint:
    """tau_+- on W: (q^{+-1} x, q^{-1} xi_0, q^{-1} xi_2), revalidated."""
    x = ctx.q_pow(sign) * p.x
    xi0 = ctx.q_pow(-1) * p.xi0
    xi2 = ctx.q_pow(-1) * p.xi2
    res = w_residuals(x, xi0, xi2, chain, ctx)
    if max(res) > W_TOL:
        raise RuntimeError(f"tau image left the curve: residuals {res}")
    return WPoint(x=x, xi0=xi0, xi2=xi2, residuals=res)


def descended_t_residual(p: WPoint, chain: HofstadterChain3,
                         ctx: Context) -> float:
    """Defect of x^{-2} T(x)|p> = |tau_- p> Delta~_- + |tau_+ p> Delta~_+."""
    v, vm, vp = _averaged_rows([p, tau_W(p, -1, chain, ctx),
                                tau_W(p, +1, chain, ctx)], chain, ctx)
    lhs = transfer_apply(chain.chain_params(), p.x, ctx, v) / p.x**2
    rhs = (vm * descended_delta(p, -1, chain, ctx)
           + vp * descended_delta(p, +1, chain, ctx))
    return relative_defect(lhs, rhs)


def evaluation_vectors(points, chain: HofstadterChain3, ctx: Context):
    """Rows: the ``evaluation`` averaged Baxter vectors of the points."""
    return _averaged_rows(points, chain, ctx, convention="evaluation")


def evaluation_rank(vecs: np.ndarray, l: int, ctx: Context) -> int:
    """Numerical rank of the sector-l pairing of the rows of vecs: column r,
    the product with the orbit-r eigenvector, gathers vecs * conj(amp)."""
    orbit, amp = sector_orbits(ctx, 3, l)
    pairing = np.zeros((len(vecs), ctx.N ** 2), dtype=complex)
    np.add.at(pairing, (slice(None), orbit), vecs * amp.conj())
    sv = np.linalg.svd(pairing, compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def epsilon_rank(l: int, points, chain: HofstadterChain3, ctx: Context) -> int:
    """`evaluation_rank` of the points' ``evaluation`` vectors, the fiber
    convention under which the sector-l evaluation map is injective."""
    N = ctx.N
    if len(points) < N * N:
        raise ValueError(f"need at least N^2 = {N * N} points, got {len(points)}")
    return evaluation_rank(evaluation_vectors(points, chain, ctx), l, ctx)


def draw_w_points(chain: HofstadterChain3, ctx: Context,
                  rng: np.random.Generator, count: int) -> list:
    """Sample `count` distinct W-points from the circles |x| = 0.5 and 2."""
    radii = (0.5, 2.0)
    out = []
    attempts = misses = 0   # misses: x-draws that added no point
    while len(out) < count and misses < 200:
        attempts += 1
        r = radii[attempts % len(radii)]
        x = r * unit_draws(rng, 1)[0]
        try:
            pts = sample_W(x, chain, ctx)
        except (PoleError, RuntimeError):
            misses += 1
            continue
        # keep a spread of root choices rather than whole fibers
        idx = rng.permutation(len(pts))
        before = len(out)
        for i in idx[:max(2, ctx.N)]:
            p = pts[i]
            if abs(p.x * p.xi0) > 1e-4 and len(out) < count:
                out.append(p)
        misses += len(out) == before
    if len(out) < count:
        raise RuntimeError("failed to sample enough regular W points")
    return out
