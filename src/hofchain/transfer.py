"""L-operators, R-matrix, transfer matrices, and the L=3 Heisenberg algebra.

The local L-operator for a projective site parameter h = [a:b:c:d] is the
2x2 block matrix (aY, xbX; xcZ, d) acting on aux (2-dim) x quantum (N-dim).
Chains multiply in the auxiliary space and tensor in the quantum space;
the transfer matrix is the auxiliary trace and forms a commuting family
in the spectral parameter x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .weylcore import (Context, Operator, PoleError, global_shift_D,
                       identity_op, kron, sector_basis, sector_project,
                       weyl_matrices)


@dataclass(frozen=True)
class SiteParams:
    """Projective representative of h = [a:b:c:d]; not all components zero."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0:
            raise ValueError("all of a, b, c, d are zero")


@dataclass(frozen=True)
class ChainParams:
    sites: tuple

    def __post_init__(self):
        if len(self.sites) < 1:
            raise ValueError("chain must have at least one site")

    @property
    def L(self) -> int:
        return len(self.sites)


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


def local_L(h: SiteParams, x: complex, ctx: Context) -> BlockOperator2x2:
    """Single-site L-operator (aY, xbX; xcZ, d)."""
    w = weyl_matrices(ctx)
    I = identity_op(ctx)
    return BlockOperator2x2(((h.a * w["Y"], (x * h.b) * w["X"]),
                             ((x * h.c) * w["Z"], h.d * I)))


def chain_L(chain: ChainParams, x: complex, ctx: Context) -> BlockOperator2x2:
    return reduce(BlockOperator2x2.aux_product,
                  (local_L(h, x, ctx) for h in chain.sites))


def r_matrix(x: complex, ctx: Context) -> np.ndarray:
    """The 4x4 six-vertex R-matrix; has a pole at x = 0."""
    if x == 0:
        raise PoleError("R(x) has a pole at x = 0")
    w = ctx.omega
    xi = 1.0 / x
    return np.array([
        [x * w - xi, 0, 0, 0],
        [0, w * (x - xi), w - 1, 0],
        [0, w - 1, x - xi, 0],
        [0, 0, 0, x * w - xi],
    ], dtype=complex)


def rll_residual(h: SiteParams, x: complex, xp: complex, ctx: Context) -> float:
    """Max-norm defect of R(x/x')(L(x) ox 1)(1 ox L(x')) = (1 ox L(x'))(L(x) ox 1)R(x/x')."""
    if x == 0 or xp == 0:
        raise PoleError("spectral parameters must be nonzero")
    N = ctx.N
    Lx = local_L(h, x, ctx)
    Lxp = local_L(h, xp, ctx)
    eye2 = np.eye(2)
    L1 = np.zeros((4 * N, 4 * N), dtype=complex)   # L(x) on first aux slot
    L2 = np.zeros((4 * N, 4 * N), dtype=complex)   # L(x') on second aux slot
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2))
            E[i, j] = 1.0
            L1 += np.kron(np.kron(E, eye2), Lx[i, j].mat)
            L2 += np.kron(np.kron(eye2, E), Lxp[i, j].mat)
    R = np.kron(r_matrix(x / xp, ctx), np.eye(N))
    lhs = R @ L1 @ L2
    rhs = L2 @ L1 @ R
    return float(np.max(np.abs(lhs - rhs)))


def f_op(h: SiteParams, x: complex, xi: complex, xip: complex, ctx: Context) -> Operator:
    """F_h(x, xi, xi') = xi' a Y - x b X + xi' xi x c Z - xi d."""
    w = weyl_matrices(ctx)
    I = identity_op(ctx)
    return (xip * h.a) * w["Y"] - (x * h.b) * w["X"] \
        + (xip * xi * x * h.c) * w["Z"] - (xi * h.d) * I


def gauge_L(h: SiteParams, x: complex, xi: complex, xip: complex,
            ctx: Context) -> BlockOperator2x2:
    """Gauge-transformed local operator A_j L_h(x) A_{j+1}^{-1}, in F-form."""
    return BlockOperator2x2((
        (f_op(h, x, xi - 1, xip, ctx), -1 * f_op(h, x, xi - 1, xip - 1, ctx)),
        (f_op(h, x, xi, xip, ctx), -1 * f_op(h, x, xi, xip - 1, ctx)),
    ))


def gauge_chain_L(chain: ChainParams, x: complex, xis, ctx: Context) -> BlockOperator2x2:
    """Ordered aux-product of gauge-transformed site operators; xis is cyclic."""
    L = chain.L
    return reduce(BlockOperator2x2.aux_product,
                  (gauge_L(chain.sites[j], x, xis[j], xis[(j + 1) % L], ctx)
                   for j in range(L)))


def transfer_T(chain: ChainParams, x: complex, ctx: Context) -> Operator:
    """Transfer matrix: auxiliary trace of the ordered chain product."""
    return chain_L(chain, x, ctx).trace_aux()


@dataclass(frozen=True)
class TransferPencil:
    """Even-power coefficients [T_0, T_2, ..., T_{2 floor(L/2)}] of T(x)."""

    coeffs: tuple

    def __call__(self, x: complex) -> Operator:
        acc = self.coeffs[0]
        xsq = x * x
        p = 1.0
        for c in self.coeffs[1:]:
            p *= xsq
            acc = acc + p * c
        return acc


def transfer_terms(chain: ChainParams, ctx: Context, rows) -> np.ndarray:
    """Apply every coefficient of T(x) = sum_k x^k T_k to rows, matrix-free.

    The auxiliary trace is a sum over the 2^L closed paths (i_0, ...,
    i_{L-1}, i_0).  Site j contributes the block (i_j, i_{j+1}) of
    (aY, bX; cZ, d): a shift k -> k+1 of its index when i_j = 0, the phase
    omega^k when i_{j+1} = 0, and one power of x per off-diagonal step, so
    every path lands in exactly one coefficient.  Rows of shape (B, N^L)
    give shape (L+1, B, N^L); entry k holds T_k applied to each row, and
    the odd entries vanish.
    """
    N, L = ctx.N, chain.L
    rows = np.asarray(rows, dtype=complex)
    paths = np.indices((2,) * L).reshape(L, -1).T          # (2^L, L)
    nxt = np.roll(paths, -1, axis=1)
    blocks = np.array([[[h.a, h.b], [h.c, h.d]] for h in chain.sites],
                      dtype=complex)
    weights = blocks[np.arange(L), paths, nxt].prod(axis=1)
    degrees = np.count_nonzero(paths != nxt, axis=1)
    digits = np.indices((N,) * L).reshape(L, -1)
    # (X v)[k] = v[k-1]; for Y = ZX the phase is taken at the target k
    sources = N ** np.arange(L - 1, -1, -1) @ (
        (digits - (paths == 0)[:, :, None]) % N)
    clocks = ((nxt == 0)[:, :, None] * digits).sum(axis=1)
    out = np.zeros((L + 1,) + rows.shape, dtype=complex)
    for weight, degree, source, clock in zip(weights, degrees, sources, clocks):
        if weight != 0:
            out[degree] += weight * ctx.omega_pows(clock) * rows[:, source]
    return out


def transfer_apply(chain: ChainParams, x: complex, ctx: Context,
                   v: np.ndarray) -> np.ndarray:
    """T(x) v for one vector v, summed from `transfer_terms`."""
    terms = transfer_terms(chain, ctx, v[None])[:, 0]
    return x ** np.arange(len(terms)) @ terms


def sector_pencil(chain: ChainParams, ctx: Context, l: int) -> np.ndarray:
    """Sector-l blocks of the even pencil coefficients [T_0, T_2, ...].

    Block k equals sector_project(T_{2k}, B) for B = sector_basis(ctx, L, l);
    all rows of B go through `transfer_terms` in one call.  Shape
    (floor(L/2) + 1, N^(L-1), N^(L-1)).
    """
    basis = sector_basis(ctx, chain.L, l)
    terms = transfer_terms(chain, ctx, basis)[::2]
    return basis.conj() @ terms.transpose(0, 2, 1)


def transfer_pencil(chain: ChainParams, ctx: Context) -> TransferPencil:
    """The even coefficients of T(x) as dense operators, exact by x-degree.

    Column b of T_k is T_k applied to the basis vector e_b.
    """
    terms = transfer_terms(chain, ctx, np.eye(ctx.N ** chain.L))
    return TransferPencil(tuple(Operator(t.T, ctx.N, chain.L)
                                for t in terms[::2]))


def commutator_residual(chain: ChainParams, x: complex, xp: complex,
                        ctx: Context) -> float:
    A = transfer_T(chain, x, ctx).mat
    B = transfer_T(chain, xp, ctx).mat
    return float(np.max(np.abs(A @ B - B @ A)))


def t2_formula_L3(chain: ChainParams, ctx: Context) -> Operator:
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


def hofstadter_hamiltonian(ctx: Context, mu, nu, rho, alpha, beta, gamma) -> Operator:
    """The N x N flux Hamiltonian mu(aU + 1/(aU)) + nu(bV + ..) + rho(cW + ..).

    Canonical Weyl triple on C^N: U = Z, V = X, W = (ZX)^{-1}, which
    satisfies UV = omega VU, VW = omega WV, WU = omega UW and the N-th
    power identities.  Hermitian for real mu, nu, rho and unit-modulus
    alpha, beta, gamma.  U, V, W are unitary, so (aU)^{-1} = U^H / a.
    """
    if alpha == 0 or beta == 0 or gamma == 0:
        raise ValueError("alpha, beta, gamma must be nonzero")
    w = weyl_matrices(ctx)
    U = w["Z"].mat
    V = w["X"].mat
    W = w["Y"].mat.conj().T
    H = (mu * (alpha * U + U.conj().T / alpha)
         + nu * (beta * V + V.conj().T / beta)
         + rho * (gamma * W + W.conj().T / gamma))
    return Operator(H, ctx.N, 1)


def hofstadter_sector_factor(ctx: Context, l: int) -> complex:
    """gamma for which the sector-l restriction of q D^{-1/2} T_2 is H_FK.

    On the q^l eigenspace of D the W-term coefficient of the L=3
    degenerate transfer matrix reduces to gamma_l = (q^{-1} q^{l/2})^{-1}.
    """
    return 1.0 / (ctx.q_pow(-1) * ctx.q_half_pow(l))


def sector_spectrum(op: Operator, ctx: Context, L: int, l: int) -> np.ndarray:
    """Eigenvalues of op restricted to the q^l sector of D."""
    return np.linalg.eigvals(sector_project(op, sector_basis(ctx, L, l)))
