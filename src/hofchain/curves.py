"""High-genus curve machinery for the L = 3 Hofstadter chain.

The N-th powers eta = xi_0^N, y = x^N satisfy a quadratic whose
coefficients come from a 2x2 matrix product of per-site polynomials; a
point of the curve W = (x, xi_0, xi_2) is completed to the full spectral
curve by the fiber coordinate xi_1 with xi_1^N = xi_0^{-N}.  A set of W
points is three arrays x, xi0, xi2 that broadcast together.  Baxter
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

W_TOL = 1e-9
RANK_RTOL = 1e-8


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


def abcd_polys(chain: ChainParams, ctx: Context) -> np.ndarray:
    """The ordered product prod_j (-a_j^N, y b_j^N; y c_j^N, -d_j^N) =
    (-A, B; C, -D) as one (L + 1, 2, 2) array of y-coefficients, ascending
    in degree; the product at y is np.polyval(P[::-1], y)."""
    N = ctx.N

    def site(h):
        # each entry: polynomial in y, ascending coefficients, degree 1
        return [[np.array([-h.a**N, 0.0]), np.array([0.0, h.b**N])],
                [np.array([0.0, h.c**N]), np.array([-h.d**N, 0.0])]]

    def mult(P, Q):
        return [[np.convolve(P[i][0], Q[0][j]) + np.convolve(P[i][1], Q[1][j])
                 for j in range(2)] for i in range(2)]

    return np.moveaxis(np.array(reduce(mult, map(site, chain.sites)),
                                dtype=complex), -1, 0)


def _eta_roots(y, P: np.ndarray):
    """`eta_roots` without its check: the roots, shape y.shape + (2,), and the
    mask of the y where C(y) degenerates (their roots mean nothing)."""
    y = np.asarray(y, dtype=complex)
    m = np.polyval(P[::-1], y[..., None, None])
    Cv, mid, Bv = m[..., 1, 0], m[..., 1, 1] - m[..., 0, 0], m[..., 0, 1]
    scale = np.maximum(np.maximum(abs(Cv), abs(mid)), np.maximum(abs(Bv), 1.0))
    degenerate = abs(Cv) < 1e-12 * scale
    # np.roots' companion matrix of (Cv, mid, -Bv), one per y
    comp = np.zeros(y.shape + (2, 2), dtype=complex)
    comp[..., 0, :] = (-np.stack([mid, -Bv], axis=-1)
                       / np.where(degenerate, 1.0, Cv)[..., None])
    comp[..., 1, 0] = 1.0
    return np.linalg.eigvals(comp), degenerate


def eta_roots(y, P: np.ndarray) -> np.ndarray:
    """Roots of C(y) eta^2 + (A(y) - D(y)) eta - B(y) = 0 at each entry of y,
    shape y.shape + (2,), read off the product m = (-A, B; C, -D) at y of the
    `abcd_polys` array P: one stacked eigvals of np.roots' companion
    matrices, so each pair has np.roots' bits wherever B(y) != 0."""
    roots, degenerate = _eta_roots(y, P)
    if np.any(degenerate):
        raise PoleError("leading coefficient C(y) degenerates at y="
                        f"{np.asarray(y)[degenerate]}; the fiber quadratic "
                        "has a single root")
    return roots


def _w_defects(x, xi0, xi2, chain: HofstadterChain3, ctx: Context) -> tuple:
    """`w_residuals`, with NaN where a denominator vanishes: such a
    denominator is replaced by 1 before the division, so nothing warns."""
    N = ctx.N
    h1, h2 = chain.h1, chain.h2
    y, xi0N, xi2N = np.power(x, N), np.power(xi0, N), np.power(xi2, N)
    den1 = y * xi2N * h1.c**N - h1.d**N
    den2 = y * xi0N * h2.c**N - h2.d**N
    pole = ((np.abs(den1) < POLE_TOL) | (np.abs(den2) < POLE_TOL)
            | (np.abs(xi0N) < POLE_TOL))
    den1, den2, xi0N = (np.where(pole, 1.0, d) for d in (den1, den2, xi0N))
    rhs1 = (-xi2N * h1.a**N + y * h1.b**N) / den1
    rhs2 = (-xi0N * h2.a**N + y * h2.b**N) / den2
    return tuple(np.where(pole, np.nan, np.abs(lhs - rhs) / np.maximum(
        np.maximum(1.0, np.abs(lhs)), np.abs(rhs)))
        for lhs, rhs in ((1.0 / xi0N, rhs1), (xi2N, rhs2)))


def w_residuals(x, xi0, xi2, chain: HofstadterChain3, ctx: Context) -> tuple:
    """Relative defects (r1, r2) of the two defining equations of W, elementwise
    over the broadcast coordinates; a pole in any entry raises before division."""
    res = _w_defects(x, xi0, xi2, chain, ctx)
    if np.any(np.isnan(res[0])):
        raise PoleError("W defining-equation denominator vanishes")
    return res


def _w_fibers(xs, chain: HofstadterChain3, ctx: Context, polys: np.ndarray):
    """The W-fibers over B values of x in one array pass: xi0 and xi2 of shape
    (B, 2, N, N) in `sample_W`'s order, the two `w_residuals` arrays, NaN
    over an x whose fiber meets a pole (C(y) degenerates, a denominator or an
    N-th power vanishes), and the (B,) mask of the x whose every residual is
    at most W_TOL.  The per-x scalars use scalar arithmetic and the root grid
    separately rounded real and imaginary parts, so each point has the bits
    of the scalar construction; numpy's array complex multiply rounds
    differently."""
    N, h2 = ctx.N, chain.h2
    xs = np.asarray(xs, dtype=complex)
    y = xs**N
    etas, pole = _eta_roots(y, polys)
    powers = np.ones(etas.shape + (2,), dtype=complex)   # (B, branch, [eta, xi2N])
    for b in np.flatnonzero(~pole):
        for k, eta in enumerate(etas[b]):
            den = y[b] * eta * h2.c**N - h2.d**N
            xi2N = ((-eta * h2.a**N + y[b] * h2.b**N) / den
                    if abs(den) >= POLE_TOL else 0.0)
            if min(abs(eta), abs(xi2N)) < POLE_TOL:   # or den vanished
                pole[b] = True
                break
            powers[b, k] = eta, xi2N
    base = np.exp(np.log(powers) / N)[..., None]   # the principal roots
    w = ctx.omega_pow(np.arange(N))
    grid = np.empty(base.shape[:-1] + (N,), dtype=complex)
    grid.real = base.real * w.real - base.imag * w.imag
    grid.imag = base.real * w.imag + base.imag * w.real
    xi0, xi2 = np.broadcast_arrays(grid[:, :, 0, :, None], grid[:, :, 1, None, :])
    r1, r2 = _w_defects(xs[:, None, None, None], xi0, xi2, chain, ctx)
    r1[pole], r2[pole] = np.nan, np.nan
    regular = np.all(np.maximum(r1, r2) <= W_TOL, axis=(1, 2, 3))
    return xi0, xi2, r1, r2, regular


def sample_W(x: complex, chain: HofstadterChain3, ctx: Context) -> np.ndarray:
    """All W-points over a given x as one (3, 2N^2) array of (x, xi0, xi2): 2
    eta branches x N x N root choices, the one-x case of `_w_fibers`.

    eta = xi_0^N solves the fiber quadratic; xi_2^N follows from the
    second defining equation; both N-th root fibers are enumerated from
    the principal root.  A pole raises PoleError, a residual over W_TOL
    RuntimeError.
    """
    xi0, xi2, r1, r2, regular = _w_fibers(
        [x], chain, ctx, abcd_polys(chain.chain_params(), ctx))
    if not regular[0]:
        if np.any(np.isnan(r1)):
            raise PoleError(f"x = {x} is a pole of the W fibers")
        raise RuntimeError(f"inconsistent W point: residual {np.max([r1, r2])}")
    return np.array([np.full(xi0.size, x), xi0.ravel(), xi2.ravel()])


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


def averaged_baxter(x, xi0, xi2, chain: HofstadterChain3, ctx: Context,
                    convention: str = "descent") -> np.ndarray:
    """Fiber-averaged Baxter vectors |p> = (1/N) sum_s |p, s> weight(s) of the
    broadcast points (x, xi0, xi2), on a trailing N^3 axis; the module
    docstring gives the two conventions.  The (point, lift) array of
    coordinates runs each site's recursion once, and the lift sum
    sum_s (w_s / N) v0_s (x) v1_s (x) v2_s is one batched matrix product."""
    N, s, shape = ctx.N, np.arange(ctx.N), np.broadcast(x, xi0, xi2).shape
    x, xi0, xi2 = (np.broadcast_to(np.asarray(z, dtype=complex), shape)
                   .reshape(-1, 1) for z in (x, xi0, xi2))
    if convention == "descent":       # xi_1 = omega^s / xi_0, q^{-s(s+1)}
        xi1, weight = ctx.omega_pow(s) / xi0, ctx.q_pow(-s * (s + 1))
    elif convention == "evaluation":  # xi_0 -> q^s xi_0, xi_1 = 1/xi_0, q^{s^2}
        xi0 = ctx.q_pow(s) * xi0
        xi1, weight = 1.0 / xi0, ctx.q_pow(s * s)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    v0 = _site_null_vector(chain.h0, x, xi0, xi1, ctx) * (weight / N)[:, None]
    v1 = _site_null_vector(chain.h1, x, xi1, xi2, ctx)
    v2 = np.broadcast_to(_site_null_vector(chain.h2, x, xi2, xi0, ctx), v1.shape)
    v01 = v0.transpose(0, 2, 1)[:, :, None] * v1.transpose(0, 2, 1)[:, None]
    return (v01.reshape(len(x), N * N, N) @ v2).reshape(shape + (N ** 3,))


def descended_delta(x, xi0, xi2, sign: int, chain: HofstadterChain3,
                    ctx: Context):
    """The functions Delta~_+- of the descended transfer relation on W,
    elementwise over the broadcast coordinates."""
    h1, h2 = chain.h1, chain.h2
    if sign == -1:
        if np.any(np.abs(x * xi0) < POLE_TOL):
            raise PoleError("Delta~_- pole at x xi_0 = 0")
        return ((x * xi2 * h1.c - h1.d) * (x * xi0 * h2.c - h2.d)) / (-x * xi0)
    if sign == 1:
        den = x * (xi2 * h1.a - x * h1.b) * (xi0 * h2.a - x * h2.b)
        if np.any(np.abs(den) < POLE_TOL):
            raise PoleError("Delta~_+ pole")
        return (xi2 * (h1.a * h1.d - x**2 * h1.b * h1.c)
                * (h2.a * h2.d - x**2 * h2.b * h2.c)) / den
    raise ValueError("sign must be +1 or -1")


def tau_W(x, xi0, xi2, sign: int, chain: HofstadterChain3, ctx: Context):
    """tau_+- on W: (q^{+-1} x, q^{-1} xi_0, q^{-1} xi_2), elementwise and
    revalidated; the image coordinates."""
    image = (ctx.q_pow(sign) * x, ctx.q_pow(-1) * xi0, ctx.q_pow(-1) * xi2)
    res = w_residuals(*image, chain, ctx)
    if not np.all(np.maximum(*res) <= W_TOL):
        raise RuntimeError(f"tau image left the curve: residual {np.max(res)}")
    return image


def descended_t_residual(chain: HofstadterChain3, x, xi0, xi2, ctx: Context):
    """Defect of x^{-2} T(x)|p> = |tau_- p> Delta~_- + |tau_+ p> Delta~_+ at
    the points (x, xi0, xi2), which broadcast: a float for one point, an
    array for arrays.  One fiber average of every p, tau_- p and tau_+ p, one
    `transfer_apply` call with each point's own x.  One point is taken as an
    array of one: numpy's scalar complex arithmetic rounds differently."""
    one = np.broadcast(x, xi0, xi2).ndim == 0
    p = np.atleast_1d(*np.broadcast_arrays(x, xi0, xi2))
    taus = [tau_W(*p, sign, chain, ctx) for sign in (-1, +1)]
    v, vm, vp = averaged_baxter(*np.stack([p, *taus], axis=1), chain, ctx)
    lhs = transfer_apply(chain.chain_params(), p[0], ctx, v) / (p[0]**2)[..., None]
    rhs = (vm * descended_delta(*p, -1, chain, ctx)[..., None]
           + vp * descended_delta(*p, +1, chain, ctx)[..., None])
    res = relative_defect(lhs, rhs)
    return float(res[0]) if one else res


def evaluation_ranks(vecs: np.ndarray, ctx: Context) -> list:
    """Numerical rank of the sector-l pairing of the rows of vecs, for each l.
    Column r of a pairing is the product with the orbit-r eigenvector.  The
    orbit table does not depend on l and amp_l = amp_0 q^{-l t} at digit 0 =
    t, so pairing l is one gather of vecs * conj(amp_0) into (row, orbit, t)
    times column l of the N x N DFT table (in turn: N at once cost memory)."""
    N = ctx.N
    orbit, amp = sector_orbits(ctx, 3, 0)
    states = np.argsort(orbit * N + np.arange(N ** 3) // N ** 2).reshape(N * N, N)
    gathered = vecs[:, states]
    gathered *= amp.conj()[states]
    svs = (np.linalg.svd(gathered @ ctx.q_pow(l * np.arange(N)), compute_uv=False)
           for l in range(N))
    return [int(np.sum(sv > RANK_RTOL * sv[0])) for sv in svs]


def epsilon_rank(l: int, x, xi0, xi2, chain: HofstadterChain3,
                 ctx: Context) -> int:
    """Entry l of `evaluation_ranks` of the points' ``evaluation`` averages,
    the fiber convention under which the sector-l evaluation map is injective."""
    N, count = ctx.N, np.broadcast(x, xi0, xi2).size
    if count < N * N:
        raise ValueError(f"need at least N^2 = {N * N} points, got {count}")
    vecs = averaged_baxter(x, xi0, xi2, chain, ctx, "evaluation")
    return evaluation_ranks(vecs.reshape(count, -1), ctx)[l]


def draw_w_points(chain: HofstadterChain3, ctx: Context,
                  rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample `count` distinct W-points from the circles |x| = 0.5 and 2, as
    one (3, count) array of (x, xi0, xi2).

    Each x-draw is followed by a permutation of its 2N^2 points, whose first
    max(2, N) are kept unless |x xi_0| <= 1e-4.  One `_w_fibers` call takes
    the ceil(left / max(2, N)) draws that fill the count if none is missed;
    a miss (a pole or a draw that adds nothing) costs another batch, and
    200 misses end the search.
    """
    radii, keep = (0.5, 2.0), max(2, ctx.N)
    polys = abcd_polys(chain.chain_params(), ctx)
    out = [np.empty((3, 0), dtype=complex)]
    have = attempts = misses = 0   # misses: x-draws that added no point
    while have < count and misses < 200:
        xs, perms = [], []
        for _ in range(-(-(count - have) // keep)):
            attempts += 1
            xs.append(radii[attempts % len(radii)] * unit_draws(rng, 1)[0])
            # keep a spread of root choices rather than whole fibers
            perms.append(rng.permutation(2 * ctx.N ** 2)[:keep])
        xi0, xi2, _, _, regular = _w_fibers(xs, chain, ctx, polys)
        xs, perms = np.array(xs), np.array(perms)
        xi0, xi2 = (np.take_along_axis(z.reshape(len(xs), -1), perms, axis=1)
                    for z in (xi0, xi2))
        kept = regular[:, None] & (np.abs(xs[:, None] * xi0) > 1e-4)
        missed = ~kept.any(axis=1)
        kept &= (misses + np.cumsum(missed) < 200)[:, None]  # none after miss 200
        misses += int(missed.sum())
        b, k = (i[:count - have] for i in np.nonzero(kept))
        out.append(np.array([xs[b], xi0[b, k], xi2[b, k]]))
        have += len(b)
    if have < count:
        raise RuntimeError("failed to sample enough regular W points")
    return np.concatenate(out, axis=1)
