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

W_TOL = 1e-9
RANK_RTOL = 1e-8


@dataclass(frozen=True)
class WPoint:
    """A point (x, xi_0, xi_2) on W with its defining-equation residuals; the
    stack of B points has 1-d coordinate arrays of length B (`_stack`)."""

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


def sample_W(x: complex, chain: HofstadterChain3, ctx: Context) -> list:
    """All W-points over a given x: 2 eta branches x N x N root choices, the
    one-x case of `_w_fibers`.

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
    return [WPoint(x=x, xi0=a, xi2=b, residuals=r) for a, b, r in zip(
        xi0.ravel(), xi2.ravel(), zip(r1.ravel().tolist(), r2.ravel().tolist()))]


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


def _stack(points) -> WPoint:
    """The points as one stack; a stack among them stands for its points."""
    return WPoint(*(np.array([getattr(p, c) for p in points], complex).ravel()
                    for c in ("x", "xi0", "xi2")), residuals=None)


def _averaged_rows(points, chain: HofstadterChain3, ctx: Context,
                   convention: str = "descent") -> np.ndarray:
    """`averaged_baxter` of each point, one row each: the (point, lift) array
    of coordinates runs each site's recursion once, and the lift sum
    sum_s (w_s / N) v0_s (x) v1_s (x) v2_s is one batched matrix product."""
    N, s = ctx.N, np.arange(ctx.N)
    pts = _stack(points)
    x, xi0, xi2 = pts.x[:, None], pts.xi0[:, None], pts.xi2[:, None]
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
    return (v01.reshape(len(x), N * N, N) @ v2).reshape(len(x), N ** 3)


def averaged_baxter(p: WPoint, chain: HofstadterChain3, ctx: Context,
                    convention: str = "descent") -> np.ndarray:
    """Fiber-averaged Baxter vector |p> = (1/N) sum_s |p, s> weight(s); the
    module docstring gives the two conventions and what each satisfies."""
    return _averaged_rows([p], chain, ctx, convention)[0]


def descended_delta(p: WPoint, sign: int, chain: HofstadterChain3,
                    ctx: Context) -> complex:
    """The functions Delta~_+- of the descended transfer relation on W, at a
    point or elementwise over a stack."""
    x, xi0, xi2 = p.x, p.xi0, p.xi2
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


def tau_W(p: WPoint, sign: int, chain: HofstadterChain3, ctx: Context) -> WPoint:
    """tau_+- on W: (q^{+-1} x, q^{-1} xi_0, q^{-1} xi_2), revalidated; of a
    point or of each point of a stack."""
    x = ctx.q_pow(sign) * p.x
    xi0 = ctx.q_pow(-1) * p.xi0
    xi2 = ctx.q_pow(-1) * p.xi2
    res = w_residuals(x, xi0, xi2, chain, ctx)
    if not np.all(np.maximum(*res) <= W_TOL):
        raise RuntimeError(f"tau image left the curve: residual {np.max(res)}")
    return WPoint(x=x, xi0=xi0, xi2=xi2, residuals=res)


def descended_t_residual(p, chain: HofstadterChain3, ctx: Context):
    """Defect of x^{-2} T(x)|p> = |tau_- p> Delta~_- + |tau_+ p> Delta~_+ at
    one WPoint (a float) or at each of a sequence of points (an array): one
    fiber average of every p, tau_- p and tau_+ p, one `transfer_apply` call
    with each row's own x."""
    P = _stack([p] if isinstance(p, WPoint) else p)
    taus = [tau_W(P, sign, chain, ctx) for sign in (-1, +1)]
    v, vm, vp = _averaged_rows([P] + taus, chain, ctx).reshape(3, len(P.x), -1)
    lhs = transfer_apply(chain.chain_params(), P.x, ctx, v) / (P.x**2)[:, None]
    rhs = (vm * descended_delta(P, -1, chain, ctx)[:, None]
           + vp * descended_delta(P, +1, chain, ctx)[:, None])
    res = relative_defect(lhs, rhs)
    return float(res[0]) if isinstance(p, WPoint) else res


def evaluation_vectors(points, chain: HofstadterChain3, ctx: Context):
    """Rows: the ``evaluation`` averaged Baxter vectors of the points."""
    return _averaged_rows(points, chain, ctx, convention="evaluation")


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


def epsilon_rank(l: int, points, chain: HofstadterChain3, ctx: Context) -> int:
    """Entry l of `evaluation_ranks` of the points' ``evaluation`` vectors,
    the fiber convention under which the sector-l evaluation map is injective."""
    N = ctx.N
    if len(points) < N * N:
        raise ValueError(f"need at least N^2 = {N * N} points, got {len(points)}")
    return evaluation_ranks(evaluation_vectors(points, chain, ctx), ctx)[l]


def draw_w_points(chain: HofstadterChain3, ctx: Context,
                  rng: np.random.Generator, count: int) -> list:
    """Sample `count` distinct W-points from the circles |x| = 0.5 and 2.

    Each x-draw is followed by a permutation of its 2N^2 points, whose first
    max(2, N) are kept unless |x xi_0| <= 1e-4.  One `_w_fibers` call takes
    the ceil(left / max(2, N)) draws that fill the count if none is missed;
    a miss (a pole or a draw that adds nothing) costs another batch.
    """
    radii, keep = (0.5, 2.0), max(2, ctx.N)
    polys = abcd_polys(chain.chain_params(), ctx)
    out = []
    attempts = misses = 0   # misses: x-draws that added no point
    while len(out) < count and misses < 200:
        xs, perms = [], []
        for _ in range(-(-(count - len(out)) // keep)):
            attempts += 1
            xs.append(radii[attempts % len(radii)] * unit_draws(rng, 1)[0])
            # keep a spread of root choices rather than whole fibers
            perms.append(rng.permutation(2 * ctx.N ** 2))
        *fibers, regular = _w_fibers(xs, chain, ctx, polys)
        xi0, xi2, r1, r2 = (a.reshape(len(xs), -1) for a in fibers)
        for b, x in enumerate(xs):
            if misses >= 200:
                break
            before = len(out)
            for i in perms[b][:keep] if regular[b] else ():
                if abs(x * xi0[b, i]) > 1e-4 and len(out) < count:
                    out.append(WPoint(x, xi0[b, i], xi2[b, i],
                                      (float(r1[b, i]), float(r2[b, i]))))
            misses += len(out) == before
    if len(out) < count:
        raise RuntimeError("failed to sample enough regular W points")
    return out
