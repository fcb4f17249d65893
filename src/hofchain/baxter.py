"""Baxter vectors on the rational-degenerate spectral curve.

On the parameter slice a_j = q^{-1} d_j, b_j = q^{-1} c_j (d_j = 1) the
spectral curve collapses to copies of the x-line indexed by l in Z_N, and
the Baxter vector has explicit q-shifted-factorial components.  The
transfer matrix acts on it by the two-term shift relation with the
rational functions Delta_-,+; even/odd sector combinations turn that
action into the polynomial Bethe equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weylcore import Context, PoleError, pochhammer, unit_draws
from .transfer import ChainParams, SiteParams, transfer_apply


@dataclass(frozen=True)
class RationalPoint:
    """A point (x, l) of the degenerate curve; l reduced to [0, N)."""

    x: complex
    l: int

    def reduced(self, ctx: Context) -> "RationalPoint":
        return RationalPoint(self.x, int(self.l) % ctx.N)


@dataclass(frozen=True)
class DegenerateChain:
    """Chain on the rational slice, parameterized by the nonzero c_j."""

    c: tuple

    def __post_init__(self):
        if any(cj == 0 for cj in self.c):
            raise ValueError("all c_j must be nonzero")

    @property
    def L(self) -> int:
        return len(self.c)

    def site_params(self, ctx: Context) -> ChainParams:
        qinv = ctx.q_pow(-1)
        return ChainParams(tuple(SiteParams(qinv, qinv * cj, cj, 1.0)
                                 for cj in self.c))


def tau(p: RationalPoint, sign: int, ctx: Context) -> RationalPoint:
    """tau_+-(x, l) = (q^{+-1} x, l - 1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return RationalPoint(ctx.q_pow(sign) * p.x, (p.l - 1) % ctx.N)


def delta_pm(p: RationalPoint, sign: int, chain: DegenerateChain,
             ctx: Context) -> complex:
    """Delta_- = prod(1 - x c_j q^l); Delta_+ = prod (1-x^2 c_j^2)/(1 - x c_j q^{-l})."""
    x, l = p.x, int(p.l)
    if sign == -1:
        return complex(np.prod([1 - x * cj * ctx.q_pow(l) for cj in chain.c]))
    if sign == 1:
        out = 1.0 + 0.0j
        for j, cj in enumerate(chain.c):
            den = 1 - x * cj * ctx.q_pow(-l)
            if abs(den) < 1e-13:
                raise PoleError(f"Delta_+ pole at site j={j}: x = q^l / c_j")
            out *= (1 - x * x * cj * cj) / den
        return out
    raise ValueError("sign must be +1 or -1")


def _q_pows(ctx: Context, e) -> np.ndarray:
    """q^e elementwise for an integer array e, from the same root table."""
    return np.array(ctx._roots)[(ctx.M + 1) * np.asarray(e) % ctx.N]


def _baxter_rows(xs, ls, chain: DegenerateChain, ctx: Context) -> np.ndarray:
    """Baxter vectors |xs[b], ls[b]>, one row each; see `baxter_vector`.

    One `pochhammer` call each for the numerators and the denominators
    over (rows x sites x k); the tensor product is formed by outer products.
    """
    N = ctx.N
    xc = np.multiply.outer(np.asarray(xs, dtype=complex), np.asarray(chain.c))
    e = np.asarray(ls)[:, None] + 2
    k = np.arange(N)
    den = pochhammer((xc * _q_pows(ctx, e))[..., None], ctx.omega, k)
    bad = np.argwhere(np.abs(den) < 1e-13)
    if len(bad):
        _, j, kk = bad[0]
        raise PoleError(f"Baxter component pole at site j={j}, k={kk}")
    num = pochhammer((xc * _q_pows(ctx, -e))[..., None], ctx.omega_pow(-1), k)
    sites = _q_pows(ctx, k * k) * num / den
    out = sites[:, 0]
    for site in sites.transpose(1, 0, 2)[1:]:
        out = (out[:, :, None] * site[:, None, :]).reshape(len(out), -1)
    return out


def baxter_vector(p: RationalPoint, chain: DegenerateChain,
                  ctx: Context) -> np.ndarray:
    """Components <k|x,l> = q^{|k|^2} prod_j (x c_j q^{-l-2}; w^-1)_{k_j} / (x c_j q^{l+2}; w)_{k_j}.

    Multi-indices k run over (Z_N)^L with non-negative representatives;
    the vector is the tensor product of the per-site columns.
    """
    return _baxter_rows([p.x], [int(p.l)], chain, ctx)[0]


def t_action_residual(chain: DegenerateChain, p: RationalPoint,
                      ctx: Context) -> float:
    """Defect of T(x)|x,l> = |q^{-1}x, l-1> Delta_- + |qx, l-1> Delta_+.

    Normalized by the larger of 1 and the vector scales so the diagnostic
    stays meaningful when components grow near pole loci.
    """
    pm, pp = tau(p, -1, ctx), tau(p, 1, ctx)
    v, vm, vp = _baxter_rows([p.x, pm.x, pp.x], [p.l, pm.l, pp.l], chain, ctx)
    lhs = transfer_apply(chain.site_params(ctx), p.x, ctx, v)
    rhs = vm * delta_pm(p, -1, chain, ctx) + vp * delta_pm(p, 1, chain, ctx)
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def _f_weights(x: complex, n, shift: int, chain: DegenerateChain,
               ctx: Context):
    """prod_j (x c_j q^-shift; w^-1)_{n+1} / (x c_j q^shift; w)_{n+1}."""
    xc = x * np.asarray(chain.c).reshape((-1,) + (1,) * np.ndim(n))
    n1 = np.asarray(n) + 1
    den = pochhammer(xc * ctx.q_pow(shift), ctx.omega, n1)
    if np.any(np.abs(den) < 1e-13):
        raise PoleError(f"f^{'eo'[shift]} pole")
    ratio = pochhammer(xc * ctx.q_pow(-shift), ctx.omega_pow(-1), n1) / den
    out = np.prod(ratio, axis=0)
    return complex(out) if out.ndim == 0 else out


def f_even(x: complex, n, chain: DegenerateChain, ctx: Context):
    return _f_weights(x, n, 0, chain, ctx)


def f_odd(x: complex, n, chain: DegenerateChain, ctx: Context):
    return _f_weights(x, n, 1, chain, ctx)


def u_weight(x: complex, chain: DegenerateChain, ctx: Context) -> complex:
    """u(x) = prod_j (1 - x^N c_j^N) (x c_j q; q^2)_M."""
    N, M = ctx.N, ctx.M
    c = np.asarray(chain.c)
    return complex(np.prod((1 - x**N * c**N)
                           * pochhammer(x * c * ctx.q_pow(1), ctx.q_pow(2), M)))


def sector_vectors(x: complex, l: int, chain: DegenerateChain,
                   ctx: Context) -> dict:
    """The even/odd phase sums and their weighted combination |x>_l^+.

    e = sum_n |x, 2n> f^e(x, n) w^{ln} and o = sum_n |x, 2n+1> f^o(x, n) w^{ln};
    both sums run over the same N Baxter vectors |x, l'>, l' in Z_N.
    """
    N = ctx.N
    l = int(l) % N
    n = np.arange(N)
    rows = _baxter_rows(np.full(N, x), n, chain, ctx)
    phase = np.array(ctx._roots)[l * n % N]
    e = (rows[2 * n % N] * f_even(x, n, chain, ctx)[:, None]
         * phase[:, None]).sum(axis=0)
    o = (rows[(2 * n + 1) % N] * f_odd(x, n, chain, ctx)[:, None]
         * phase[:, None]).sum(axis=0)
    plus = e * ctx.q_pow(-l) * u_weight(ctx.q_pow(1) * x, chain, ctx) \
        + o * u_weight(x, chain, ctx)
    return {"e_vec": e, "o_vec": o, "plus_vec": plus}


def theorem1_ii_residual(chain: DegenerateChain, x: complex, l: int,
                         ctx: Context) -> float:
    """Defect of q^{-l} T(x)|x>_l^+ = |q^{-1}x>_l^+ D_-(x,-1) + |qx>_l^+ D_+(x,0)."""
    plus = sector_vectors(x, l, chain, ctx)["plus_vec"]
    plus_m = sector_vectors(ctx.q_pow(-1) * x, l, chain, ctx)["plus_vec"]
    plus_p = sector_vectors(ctx.q_pow(1) * x, l, chain, ctx)["plus_vec"]
    lhs = ctx.q_pow(-int(l)) * transfer_apply(chain.site_params(ctx), x, ctx,
                                              plus)
    dm = complex(np.prod([1 - x * cj * ctx.q_pow(-1) for cj in chain.c]))
    dp = complex(np.prod([1 + x * cj for cj in chain.c]))
    rhs = plus_m * dm + plus_p * dp
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def draw_regular_x(rng: np.random.Generator, chain: DegenerateChain,
                   ctx: Context, radius: float = None,
                   margin: float = 1e-4) -> complex:
    """Sample x on a circle, rejecting points within `margin` of a pole.

    Default radius 1/max|c_j| puts samples on the natural scale of the
    pole loci x c_j in mu_N-powers of q.
    """
    if radius is None:
        radius = 1.0 / max(abs(cj) for cj in chain.c)
    for _ in range(1000):
        x = radius * unit_draws(rng, 1)[0]
        ok = True
        for cj in chain.c:
            for e in range(ctx.N):
                if abs(1 - x * cj * ctx.q_pow(e)) < margin:
                    ok = False
                if abs(1 - x * x * cj * cj * ctx.omega_pow(e)) < margin:
                    ok = False
        if ok:
            return x
    raise RuntimeError("could not draw a pole-free sample point")


def _fit_nodes(rng: np.random.Generator, chain: DegenerateChain, ctx: Context,
               count: int, margin: float = 1e-3) -> np.ndarray:
    """Jittered equally spaced circle nodes, re-jittered away from poles.

    Near-uniform angles keep the Vandermonde system close to a DFT, which
    is what makes high-degree interpolation stable here.
    """
    radius = 1.0 / max(abs(cj) for cj in chain.c)
    nodes = np.empty(count, dtype=complex)
    for k in range(count):
        for _ in range(100):
            theta = 2 * np.pi * (k + 0.6 * rng.random()) / count
            x = radius * np.exp(1j * theta)
            ok = all(abs(1 - x * cj * ctx.q_pow(e)) > margin
                     for cj in chain.c for e in range(2 * ctx.N))
            if ok:
                nodes[k] = x
                break
        else:
            raise RuntimeError("could not place a pole-free fit node")
    return nodes


def plus_pairing_coeffs(phi: np.ndarray, label: int, chain: DegenerateChain,
                        ctx: Context, rng: np.random.Generator) -> np.ndarray:
    """Least-squares polynomial coefficients of x -> phi . |x>_label^+.

    The pairing is bilinear (phi is a left eigenvector of the transfer
    family).  The pairing is a polynomial of degree at most (3M+1)L.
    """
    deg = (3 * ctx.M + 1) * chain.L
    xs = _fit_nodes(rng, chain, ctx, deg + 6)
    vals = np.array([phi @ sector_vectors(x, label, chain, ctx)["plus_vec"]
                     for x in xs])
    V = np.vander(xs, deg + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, vals, rcond=None)
    return coeffs
