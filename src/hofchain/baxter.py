"""Baxter vectors on the rational-degenerate spectral curve.

On the parameter slice a_j = q^{-1} d_j, b_j = q^{-1} c_j (d_j = 1) the
spectral curve collapses to copies of the x-line indexed by l in Z_N, and
the Baxter vector has explicit q-shifted-factorial components.  The
transfer matrix acts on it by the two-term shift relation with the
rational functions Delta_-,+; even/odd sector combinations turn that
action into the polynomial Bethe equation, whose two shift polynomials
`shift_polys` builds for `bethe`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .weylcore import (POLE_TOL, Context, PoleError, check_int, pochhammer,
                       relative_defect, unit_draws, worst)
from .transfer import ChainParams, SiteParams, transfer_apply


@dataclass(frozen=True)
class DegenerateChain:
    """Chain on the rational slice, parameterized by the nonzero c_j."""

    c: tuple

    def __post_init__(self):
        for j, cj in enumerate(self.c):
            if not cmath.isfinite(cj):
                raise ValueError(f"c_{j} must be finite, got {cj!r}")
        if any(cj == 0 for cj in self.c):
            raise ValueError("all c_j must be nonzero")

    @property
    def L(self) -> int:
        return len(self.c)

    def site_params(self, ctx: Context) -> ChainParams:
        qinv = ctx.q_pow(-1)
        return ChainParams(tuple(SiteParams(qinv, qinv * cj, cj, 1.0)
                                 for cj in self.c))


def delta_pm(x, l, sign: int, chain: DegenerateChain, ctx: Context):
    """Delta_- = prod(1 - x c_j q^l); Delta_+ = prod (1-x^2 c_j^2)/(1 - x c_j q^{-l});
    x and l broadcast: a complex for one point, an array for a stack."""
    check_int("sector l", l)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x, c = np.asarray(x, dtype=complex)[..., None], np.asarray(chain.c)
    den = 1 - x * c * ctx.q_pow(-sign * np.asarray(l)[..., None])
    bad = np.argwhere(np.abs(den) < POLE_TOL) if sign == 1 else []
    if len(bad):
        raise PoleError(f"Delta_+ pole at site j={bad[0][-1]}: x = q^l / c_j")
    out = np.prod(den if sign == -1 else (1 - x * x * c * c) / den, axis=-1)
    return complex(out) if out.ndim == 0 else out


def shift_polys(chain: DegenerateChain, ctx: Context):
    """Ascending coefficients (pm, pp) of Delta_-(x, -1) = prod(1 - x c_j q^{-1})
    and of Delta_+(x, 0) = prod(1 + x c_j), its removable pole cancelled."""
    pm = pp = np.array([1.0 + 0.0j])
    for cj in chain.c:
        pm = np.convolve(pm, np.array([1.0, -cj * ctx.q_pow(-1)]))
        pp = np.convolve(pp, np.array([1.0, cj]))
    return pm, pp


def _baxter_rows(xs, ls, chain: DegenerateChain, ctx: Context) -> np.ndarray:
    """Baxter vectors |xs[b], ls[b]>, one row each; see `baxter_vector`.

    One `pochhammer` call each for the numerators and the denominators
    over (rows x sites x k); the tensor product is formed by outer products.
    """
    xc = np.multiply.outer(np.asarray(xs, dtype=complex), np.asarray(chain.c))
    l2 = np.asarray(ls)[:, None] + 2
    k = np.arange(ctx.N)
    den = pochhammer((xc * ctx.q_pow(l2))[..., None], ctx.omega, k)
    bad = np.argwhere(np.abs(den) < POLE_TOL)
    if len(bad):
        _, j, kk = bad[0]
        raise PoleError(f"Baxter component pole at site j={j}, k={kk}")
    num = pochhammer((xc * ctx.q_pow(-l2))[..., None], ctx.omega_pow(-1), k)
    sites = ctx.q_pow(k * k) * num / den
    out = sites[:, 0]
    for site in sites.transpose(1, 0, 2)[1:]:
        out = (out[:, :, None] * site[:, None, :]).reshape(len(out), -1)
    return out


def baxter_vector(x, l, chain: DegenerateChain, ctx: Context) -> np.ndarray:
    """Components <k|x,l> = q^{|k|^2} prod_j (x c_j q^{-l-2}; w^-1)_{k_j} / (x c_j q^{l+2}; w)_{k_j}.

    Multi-indices k run over (Z_N)^L with non-negative representatives;
    the vector is the tensor product of the per-site columns.
    """
    check_int("sector l", l)
    return _baxter_rows([x], [int(l)], chain, ctx)[0]


def t_action_residual(chain: DegenerateChain, x, l, ctx: Context):
    """Defect of T(x)|x,l> = |q^{-1}x, l-1> Delta_- + |qx, l-1> Delta_+.

    Normalized by the larger of 1 and the vector scales so the diagnostic
    stays meaningful when components grow near pole loci.  x and l
    broadcast: a float for one point, an array of defects for a stack.
    """
    check_int("sector l", l)
    x, l = np.broadcast_arrays(x, l)
    xs = [x, ctx.q_pow(-1) * x, ctx.q_pow(1) * x]
    ls = [l, (l - 1) % ctx.N, (l - 1) % ctx.N]
    v, vm, vp = _baxter_rows(np.ravel(xs), np.ravel(ls), chain,
                             ctx).reshape((3,) + x.shape + (-1,))
    lhs = transfer_apply(chain.site_params(ctx), x, ctx, v)
    dm, dp = (np.expand_dims(delta_pm(x, l, s, chain, ctx), -1)
              for s in (-1, 1))
    return relative_defect(lhs, vm * dm + vp * dp)


def _f_weights(x, n, shift: int, chain: DegenerateChain, ctx: Context):
    """prod_j (x c_j q^-shift; w^-1)_{n+1} / (x c_j q^shift; w)_{n+1}; x, n broadcast."""
    xc = np.asarray(x, dtype=complex)[..., None] * np.asarray(chain.c)
    n1 = np.asarray(n)[..., None] + 1
    den = pochhammer(xc * ctx.q_pow(shift), ctx.omega, n1)
    if np.any(np.abs(den) < POLE_TOL):
        raise PoleError(f"f^{'eo'[shift]} pole")
    ratio = pochhammer(xc * ctx.q_pow(-shift), ctx.omega_pow(-1), n1) / den
    out = np.prod(ratio, axis=-1)
    return complex(out) if out.ndim == 0 else out


def f_even(x, n, chain: DegenerateChain, ctx: Context):
    return _f_weights(x, n, 0, chain, ctx)


def f_odd(x, n, chain: DegenerateChain, ctx: Context):
    return _f_weights(x, n, 1, chain, ctx)


def u_weight(x, chain: DegenerateChain, ctx: Context):
    """u(x) = prod_j (1 - x^N c_j^N) (x c_j q; q^2)_M, elementwise in x."""
    N, M = ctx.N, ctx.M
    x = np.asarray(x, dtype=complex)[..., None]
    c = np.asarray(chain.c)
    out = np.prod((1 - x**N * c**N)
                  * pochhammer(x * c * ctx.q_pow(1), ctx.q_pow(2), M), axis=-1)
    return complex(out) if out.ndim == 0 else out


def _plus_weights(x, l, chain: DegenerateChain, ctx: Context) -> np.ndarray:
    """The weights of |x, l'>, l' in Z_N, in `sector_vectors`' e, o and
    |x>_l^+; x and l broadcast to S, the shape is S + (3, N)."""
    N, M = ctx.N, ctx.M
    n = np.arange(N)
    # the weight of |x, l'> is term n = l'/2 of e and n = (l'-1)/2 of o (mod N)
    phase = ctx.omega_pow(np.multiply.outer(l, n))
    we = (f_even(x[..., None], n, chain, ctx) * phase)[..., (M + 1) * n % N]
    wo = (f_odd(x[..., None], n, chain, ctx) * phase)[..., (M + 1) * (n - 1) % N]
    a = ctx.q_pow(-l[..., None]) * u_weight(ctx.q_pow(1) * x[..., None],
                                            chain, ctx)
    b = u_weight(x[..., None], chain, ctx)
    return np.stack([we, wo, we * a + wo * b], axis=-2)


def _node_rows(x, chain: DegenerateChain, ctx: Context) -> np.ndarray:
    """|x, l'> for each entry of x and each l' in Z_N: x.shape + (N, N^L)."""
    N = ctx.N
    return _baxter_rows(np.repeat(x.ravel(), N), np.tile(np.arange(N), x.size),
                        chain, ctx).reshape(x.shape + (N, -1))


def sector_vectors(x, l, chain: DegenerateChain, ctx: Context) -> dict:
    """The even/odd phase sums and their weighted combination |x>_l^+.

    e = sum_n |x, 2n> f^e(x, n) w^{ln} and o = sum_n |x, 2n+1> f^o(x, n) w^{ln};
    both sums run over the same N Baxter vectors |x, l'>, l' in Z_N, built once
    per entry of x.  x and l broadcast to a shape S; each vector has shape
    S + (N^L,), and all three are one weighted contraction over l'.
    """
    x = np.asarray(x, dtype=complex)
    weights = _plus_weights(x, np.asarray(l), chain, ctx)
    e, o, plus = np.moveaxis(weights @ _node_rows(x, chain, ctx), -2, 0)
    return {"e_vec": e, "o_vec": o, "plus_vec": plus}


def theorem1_residual(chain: DegenerateChain, x, l, ctx: Context) -> float:
    """Largest Theorem 1 defect: (i) e u(qx) = q^l o u(x) and (ii) q^{-l}
    T(x)|x>_l^+ = |q^{-1}x>_l^+ D_-(x,-1) + |qx>_l^+ D_+(x,0), at one x or an
    array, one sector l or an array, each (x, l) on its own scale.  (i) is one
    weight row at x, e's u(qx) less o's q^l u(x), on (ii)'s node rows."""
    check_int("sector l", l)
    x, l = np.asarray(x), np.atleast_1d(l)
    xs = np.array([x, ctx.q_pow(-1) * x, ctx.q_pow(1) * x])[..., None]
    w, rows = _plus_weights(xs, l, chain, ctx), _node_rows(xs, chain, ctx)
    uq, u = u_weight(xs[[2, 0]], chain, ctx)[..., None, None]
    ident = np.max(np.abs((w[0, ..., :1, :] * uq - w[0, ..., 1:2, :]
                           * (ctx.q_pow(l)[:, None, None] * u)) @ rows[0]),
                   axis=(-2, -1))
    plus, plus_m, plus_p = (w[..., 2:, :] @ rows)[..., 0, :]
    del rows        # freed before T(x) is applied, which lowers the peak
    lhs = ctx.q_pow(-l)[:, None] * transfer_apply(   # one row per (x, l)
        chain.site_params(ctx), x[..., None], ctx, plus)
    dm, dp = (np.polyval(d[::-1], x)[..., None, None]
              for d in shift_polys(chain, ctx))
    return worst(np.append(ident / np.maximum(1.0, np.max(np.abs(plus), -1)),
                           relative_defect(lhs, plus_m * dm + plus_p * dp)))


theorem1_ii_residual = theorem1_residual    # the name perfbench wraps


def _regular_rotation(rng: np.random.Generator, chain: DegenerateChain,
                      ctx: Context, nodes: np.ndarray) -> complex:
    """Seeded x0 on the circle of radius 1/max|c_j| such that every x0 * nodes
    is at least 1e-4 from the pole loci x c_j q^e = 1 and x^2 c_j^2 w^e = 1.

    The radius puts samples on the natural scale of the pole loci x c_j in
    mu_N-powers of q; the test runs elementwise over the nodes.
    """
    radius = 1.0 / np.max([abs(cj) for cj in chain.c])
    c = np.asarray(chain.c)[:, None]
    e = np.arange(ctx.N)
    qe, oe = ctx.q_pow(e), ctx.omega_pow(e)
    for _ in range(1000):
        x0 = radius * unit_draws(rng, 1)[0]
        x = (x0 * nodes)[:, None, None]
        near = np.minimum(np.abs(1 - x * c * qe), np.abs(1 - x * x * c * c * oe))
        if np.all(near >= 1e-4):
            return x0
    raise RuntimeError("could not draw a pole-free sample point")


def draw_regular_x(rng: np.random.Generator, chain: DegenerateChain,
                   ctx: Context) -> complex:
    """Sample x on the pole-radius circle, rejecting points within 1e-4 of a pole."""
    return _regular_rotation(rng, chain, ctx, np.ones(1))


def plus_pairing_coeffs(phi: np.ndarray, label, chain: DegenerateChain,
                        ctx: Context, rng: np.random.Generator) -> np.ndarray:
    """Ascending coefficients of x -> phi . |x>_label^+, of degree <= (3M+1)L.

    The pairing is bilinear (phi is a left eigenvector of the transfer
    family).  Its values at the n = deg + 1 nodes x0 w_n^j, equispaced on
    the pole-radius circle with a seeded rotation x0 that keeps every node
    regular, determine it exactly: a_k = DFT(values)_k / (n x0^k).  A stack
    (K, N^L) of phi with K labels gives (K, deg + 1) coefficients: one x0, and
    each phi paired with the one table of node rows before its label's weights.
    """
    n = (3 * ctx.M + 1) * chain.L + 1
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    x0 = _regular_rotation(rng, chain, ctx, nodes)
    paired = _node_rows(x0 * nodes, chain, ctx) @ np.atleast_2d(phi).T
    weights = _plus_weights(x0 * nodes[:, None], np.atleast_1d(label), chain,
                            ctx)[..., 2, :]
    vals = np.einsum("nkl,nlk->kn", weights, paired)
    coeffs = np.fft.fft(vals) / n / x0 ** np.arange(n)
    return coeffs if np.ndim(phi) == 2 else coeffs[0]
