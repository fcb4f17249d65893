"""The dense test oracle: chain operators as products of local L-operators.

Every check here builds dense matrices from the Weyl pair and `kron`, and
reads none of the package's fast path: no Weyl path table, path weights,
path entries or columns, no Weyl or sector monomial, no orbit table, no
sector pencil and no `transfer_T`.  So `chain_L(...).trace_aux()` is an
independent reference for the transfer matrix, and the gauge blocks, the
termwise T_2, the L = 3 Heisenberg generators and the sector-M eigenvalue
from the roots are the paper identities the tests hold the package to.
`tests/test_conventions.py` checks that this file stays independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from hofchain.baxter import DegenerateChain, shift_polys
from hofchain.weylcore import Context, Operator, kron, weyl_matrices, worst


def identity_op(ctx: Context) -> Operator:
    return Operator(np.eye(ctx.N, dtype=complex), ctx.N, 1)


def global_shift_D(ctx: Context, L: int) -> Operator:
    """D = q^{-L} (tensor power of Y); unitary, D^N = I, spectrum {q^l}."""
    if L < 1:
        raise ValueError("L must be >= 1")
    Y = weyl_matrices(ctx)["Y"]
    return ctx.q_pow(-L) * kron([Y] * L)


@dataclass(frozen=True)
class BlockOperator2x2:
    """2x2 auxiliary-space matrix with Operator entries of equal dimension."""

    blocks: tuple  # ((b11, b12), (b21, b22))

    def __post_init__(self):
        tags = {b.ctx_tag for row in self.blocks for b in row}
        if len(tags) != 1:
            raise ValueError(f"block tags differ: {tags}")

    def __getitem__(self, ij):
        return self.blocks[ij[0]][ij[1]]

    def aux_product(self, other: "BlockOperator2x2") -> "BlockOperator2x2":
        """Matrix product on aux indices, tensor product on quantum spaces."""
        a, b = self.blocks, other.blocks
        return BlockOperator2x2(tuple(
            tuple(kron([a[i][0], b[0][j]]) + kron([a[i][1], b[1][j]])
                  for j in range(2)) for i in range(2)))

    def trace_aux(self) -> Operator:
        return self.blocks[0][0] + self.blocks[1][1]


def local_L(h, x: complex, ctx: Context) -> BlockOperator2x2:
    """Single-site L-operator (aY, xbX; xcZ, d) of the site h = [a:b:c:d]."""
    w = weyl_matrices(ctx)
    I = identity_op(ctx)
    return BlockOperator2x2(((h.a * w["Y"], (x * h.b) * w["X"]),
                             ((x * h.c) * w["Z"], h.d * I)))


def chain_L(chain, x: complex, ctx: Context) -> BlockOperator2x2:
    return reduce(BlockOperator2x2.aux_product,
                  (local_L(h, x, ctx) for h in chain.sites))


def f_op(h, x: complex, xi: complex, xip: complex, ctx: Context) -> Operator:
    """F_h(x, xi, xi') = xi' a Y - x b X + xi' xi x c Z - xi d."""
    w = weyl_matrices(ctx)
    I = identity_op(ctx)
    return (xip * h.a) * w["Y"] - (x * h.b) * w["X"] \
        + (xip * xi * x * h.c) * w["Z"] - (xi * h.d) * I


def gauge_L(h, x: complex, xi: complex, xip: complex,
            ctx: Context) -> BlockOperator2x2:
    """Gauge-transformed local operator A_j L_h(x) A_{j+1}^{-1}, in F-form."""
    return BlockOperator2x2((
        (f_op(h, x, xi - 1, xip, ctx), -1 * f_op(h, x, xi - 1, xip - 1, ctx)),
        (f_op(h, x, xi, xip, ctx), -1 * f_op(h, x, xi, xip - 1, ctx)),
    ))


def gauge_chain_L(chain, x: complex, xis, ctx: Context) -> BlockOperator2x2:
    """Ordered aux-product of gauge-transformed site operators; xis is cyclic."""
    L = chain.L
    return reduce(BlockOperator2x2.aux_product,
                  (gauge_L(chain.sites[j], x, xis[j], xis[(j + 1) % L], ctx)
                   for j in range(L)))


def t2_formula_L3(chain, ctx: Context) -> Operator:
    """The x^2 coefficient of the L=3 transfer matrix, written termwise."""
    if chain.L != 3:
        raise ValueError("termwise T_2 formula is specific to L = 3")
    w = weyl_matrices(ctx)
    X, Z, Y = w["X"], w["Z"], w["Y"]
    I = identity_op(ctx)
    (h0, h1, h2) = chain.sites
    return (h0.b * h1.c * h2.a * kron([X, Z, Y])
            + h0.a * h1.b * h2.c * kron([Y, X, Z])
            + h0.c * h1.a * h2.b * kron([Z, Y, X])
            + h0.c * h1.b * h2.d * kron([Z, X, I])
            + h0.d * h1.c * h2.b * kron([I, Z, X])
            + h0.b * h1.d * h2.c * kron([X, I, Z]))


def heisenberg_UV(ctx: Context) -> dict:
    """The L=3 Heisenberg generators U, V (and D, W) on C^{N^3}.

    U = D^{-1/2} Z(x)X(x)I and V = D^{-1/2} X(x)I(x)Z satisfy UV = omega VU
    and U^N = V^N = I.  D^{-1/2} means D^{N-(M+1)}, the canonical in-lattice
    half power (D^N = I).  W = q D^{-1/2} V^{-1} U^{-1} completes the Weyl
    triple appearing in the Hofstadter form of the transfer matrix.
    """
    N, M = ctx.N, ctx.M
    w = weyl_matrices(ctx)
    X, Z = w["X"], w["Z"]
    I = identity_op(ctx)
    D = global_shift_D(ctx, 3)
    D_half = Operator(np.linalg.matrix_power(D.mat, (M + 1) % N), N, 3)
    D_mhalf = Operator(np.linalg.matrix_power(D.mat, (N - (M + 1)) % N), N, 3)
    U = D_mhalf @ kron([Z, X, I])
    V = D_mhalf @ kron([X, I, Z])
    # U and V are unitary, so their inverses are adjoints
    W = ctx.q * (D_mhalf @ Operator(V.mat.conj().T @ U.mat.conj().T, N, 3))
    return {"U": U, "V": V, "D": D, "W": W,
            "D_half": D_half, "D_mhalf": D_mhalf}


def lambda_M_from_roots(roots, c, ctx: Context) -> complex:
    """Sector-M eigenvalue from the symmetric functions of the root reciprocals.

    s1, s2 are the first and second elementary symmetric polynomials of
    (c_0, c_1, c_2), the x and x^2 coefficients of Delta_+(x, 0).  The x
    coefficient carries (q^{-3/2} - q^{1/2}); the x^2-coefficient
    comparison of the Bethe equation fixes this sign.
    """
    if len(c) != 3:
        raise ValueError("three chain parameters required")
    z = np.asarray(roots, dtype=complex)
    if len(z) != 2 * ctx.M:
        raise ValueError(f"sector M has 2M = {2 * ctx.M} roots, got {len(z)}")
    s1, s2 = shift_polys(DegenerateChain(tuple(c)), ctx)[1][1:3]
    e1 = complex(np.sum(z))
    e2 = complex((np.sum(z)**2 - np.sum(z * z)) / 2.0)
    qh = ctx.q_half_pow
    return ((qh(-1) + ctx.q_pow(-1) * qh(-1)) * s2
            + (ctx.q_pow(-1) * qh(-1) - qh(1)) * s1 * e1
            + (ctx.q_pow(1) * qh(1) + ctx.q_pow(-1) * qh(-1) - qh(1) - qh(-1)) * e2)


def multiset_match(a, b) -> float:
    """Greedy nearest-neighbor matching distance between equal-size multisets.

    Returns the largest matched distance, NaN if any is NaN; raises if
    sizes differ.  Callers compare the result against their own tolerance.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    dists = []
    for va in a:
        j = int(np.argmin([abs(va - vb) for vb in b]))
        dists.append(abs(va - b.pop(j)))
    return worst(dists)
