"""L-operators, R-matrix, transfer matrices, and the L=3 Heisenberg algebra.

The local L-operator for a projective site parameter h = [a:b:c:d] is the
2x2 block matrix (aY, xbX; xcZ, d) acting on aux (2-dim) x quantum (N-dim).
Chains multiply in the auxiliary space and tensor in the quantum space;
the transfer matrix is the auxiliary trace, read everywhere as the sum
over the Weyl paths of `path_table`, and forms a commuting family in x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .weylcore import (Context, Operator, PoleError, global_shift_D,
                       identity_op, kron, read_only, sector_basis,
                       sector_monomial, sector_project, weyl_matrices,
                       weyl_monomial)

# (a, b) of the magnetic translations S_1 = X (x) Z (x) I and S_2 = I (x) X (x) Z:
# each commutes with every path monomial of the L = 3 transfer matrix, and
# S_1 S_2 = omega S_2 S_1
MAGNETIC_TRANSLATIONS = (((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)))


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


def rll_residual(h, x, xp, ctx: Context):
    """Max-norm defect of R(x/x')(L(x) ox 1)(1 ox L(x')) = (1 ox L(x'))(L(x) ox 1)R(x/x').

    h is one SiteParams or a sequence of B of them, x and x' scalars or
    length-B arrays: a float for one draw, one defect per draw for a stack.
    """
    single = isinstance(h, SiteParams) and np.ndim(x) == np.ndim(xp) == 0
    a, b, c, d, x, xp = np.broadcast_arrays(*np.array(
        [[s.a, s.b, s.c, s.d] for s in np.atleast_1d(h)], dtype=complex).T,
        np.ravel(x), np.ravel(xp))
    if np.any(x == 0) or np.any(xp == 0):
        raise PoleError("spectral parameters must be nonzero")
    N, w = ctx.N, weyl_matrices(ctx)
    weyl = np.array([[w["Y"].mat, w["X"].mat], [w["Z"].mat, np.eye(N)]])

    def embed(z, spec):     # (aY, zbX; zcZ, d) of each draw on one aux slot
        coef = np.stack([a, z * b, z * c, d], axis=-1).reshape(-1, 2, 2, 1, 1)
        return np.einsum(spec, coef * weyl, np.eye(2)).reshape(-1, 4 * N, 4 * N)

    # rows (aux 1, aux 2, site): L(x) on the first aux slot, L(x') on the second
    L1, L2 = embed(x, "bijkl,ac->biakjcl"), embed(xp, "bijkl,ac->baikcjl")
    R = np.einsum("brs,kl->brksl", [r_matrix(z, ctx) for z in x / xp],
                  np.eye(N)).reshape(L1.shape)
    out = np.max(np.abs(R @ L1 @ L2 - L2 @ L1 @ R), axis=(1, 2))
    return float(out[0]) if single else out


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


@lru_cache(maxsize=4)      # L = 1-3
def path_table(L: int) -> tuple:
    """(a, b, degree) of the 2^L closed paths (i_0, ..., i_{L-1}, i_0) of the
    auxiliary trace, the same for every chain.  Site j contributes the block
    (i_j, i_{j+1}) of (aY, xbX; xcZ, d), so a path is a weight times x^degree
    (x)_j Z^(b_j) X^(a_j), a_j = [i_j = 0], b_j = [i_{j+1} = 0], with one
    degree per off-diagonal step.  Distinct paths have distinct a.  Cached,
    so the tables are read-only."""
    i = np.indices((2,) * L).reshape(L, -1).T              # (2^L, L)
    a, b = 1 - i, 1 - np.roll(i, -1, axis=1)
    return read_only(a, b, np.count_nonzero(a != b, axis=1))


@lru_cache(maxsize=4)      # L = 1-3 at one N
def _path_columns(N: int, L: int) -> tuple:
    """(cols, clocks) of every path of `path_table` on the N^L basis, the
    same for every chain: under X^-a Z^b row t goes to column cols[p, t] =
    t - a with the phase exponent clocks[p, t] = b.t mod N.  Read-only."""
    a, b, _ = path_table(L)
    return read_only(*weyl_monomial(N, -a, b))


def path_weights(chain: ChainParams) -> np.ndarray:
    """The weight of each path of `path_table`: the product over the sites of
    the (i_j, i_{j+1}) = (1 - a_j, 1 - b_j) entry of [[a, b], [c, d]]."""
    a, b, _ = path_table(chain.L)
    blocks = np.array([[[h.a, h.b], [h.c, h.d]] for h in chain.sites],
                      dtype=complex)
    return blocks[np.arange(chain.L), 1 - a, 1 - b].prod(axis=1)


def _path_entries(chain: ChainParams, ctx: Context) -> tuple:
    """(cols, weights, phases, degree) of the paths of `path_table` with a
    nonzero weight, on the N^L basis: row t of the path w x^degree Z^b X^a
    has its one entry at column cols[p, t] = t - a, w x^degree phases[p, t]
    with phases = omega^(b.t), the image and phase of t under X^-a Z^b.
    Distinct paths have distinct a, so no two share an entry."""
    cols, clocks = _path_columns(ctx.N, chain.L)
    weights = path_weights(chain)
    keep = np.flatnonzero(weights)
    return (cols[keep], weights[keep], ctx.omega_pow(clocks[keep]),
            path_table(chain.L)[2][keep])


def transfer_T(chain: ChainParams, x: complex, ctx: Context) -> Operator:
    """Transfer matrix T(x), dense: the `_path_entries` scattered into one
    N^L x N^L matrix.  Tests hold it to chain_L(chain, x, ctx).trace_aux()."""
    N, L = ctx.N, chain.L
    cols, weights, phases, degree = _path_entries(chain, ctx)
    T = np.zeros((N ** L, N ** L), dtype=complex)
    T[np.arange(N ** L), cols] = (x ** degree * weights)[:, None] * phases
    return Operator(T, N, L)


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


def transfer_apply(chain: ChainParams, x, ctx: Context,
                   v: np.ndarray) -> np.ndarray:
    """T(x) v for one vector v or each row of a stack (..., N^L), matrix-free:
    each of the `_path_entries` gathers its columns of v into one output; x
    broadcasts against the stack, one x per row."""
    cols, weights, phases, degree = _path_entries(chain, ctx)
    v, x = np.asarray(v, dtype=complex), np.asarray(x)[..., None]
    out, term = np.zeros_like(v), np.empty_like(v)
    for c, w, phase, d in zip(cols, weights, phases, degree):
        # every column is in range: "clip" gathers into term unbuffered
        np.take(v, c, axis=-1, out=term, mode="clip")
        term *= w * phase
        term *= x ** d
        out += term
    return out


def path_monomials(chain: ChainParams, ctx: Context, l) -> tuple:
    """(perm, coef, degree): path p of `path_table` sends orbit vector B_c of
    sector l to coef[p, c] B_perm[p, c], x-degree degree[p]; an array of
    sectors gives coef a sector axis first.  Z^b X^a = omega^(a.b) X^a Z^b."""
    a, b, degree = path_table(chain.L)
    perm, phase = sector_monomial(ctx, l, a, b)
    return perm, path_weights(chain)[:, None] * ctx.omega_pow(
        phase + (a * b).sum(axis=1, keepdims=True)), degree


def sector_pencil(chain: ChainParams, ctx: Context, l) -> np.ndarray:
    """Sector-l blocks of the even pencil coefficients [T_0, T_2, ...], shape
    (floor(L/2) + 1, N^(L-1), N^(L-1)), a stack per sector of an array l: block
    k is sector_project(T_{2k}, sector_basis(ctx, L, l)), the scatter of the
    `path_monomials` of degree 2k in one pass: the oracle's dense blocks."""
    perm, coef, degree = path_monomials(chain, ctx, np.atleast_1d(l))
    S, _, n = coef.shape
    blocks = np.zeros((S, chain.L // 2 + 1, n, n), dtype=complex)
    # the two degree-0 paths share entries
    np.add.at(blocks, (np.arange(S)[:, None, None], degree[:, None] // 2,
                       perm, np.arange(n)), coef)
    return blocks if np.ndim(l) else blocks[0]


def commutant_reduction(chain: ChainParams, ctx: Context, l) -> tuple:
    """(R, residuals, lift): the L = 3 T_2 blocks B of the K sectors l as
    I_N (x) R by Schur's lemma for S_1 and S_2 (README: "What `degeneracy`
    proves"), R = V^H B V (K, N, N) on the eigenvalue-1 space V of S_1, from
    the degree-2 `path_monomials`.  residuals (K, 3): max|S B - B S| / max|B|
    for S_1 and S_2, max|B V - V R| / max|B|.  lift(mu, u), for R^T u = mu u
    by rows: phi = sum_k exp(i k^2) conj(S_2)^k conj(V) u normalised, B's
    left eigenvectors, and ||B^T phi - mu phi|| / max|B|."""
    N, ls = ctx.N, np.atleast_1d(l)
    K = len(ls)
    perm, coef, degree = path_monomials(chain, ctx, ls)
    perm, coef = perm[degree == 2], coef[:, degree == 2]
    scale = np.max(np.abs(coef), axis=(1, 2))
    perms, phases = sector_monomial(ctx, ls, *zip(*MAGNETIC_TRANSLATIONS))
    walk = np.arange(N * N)[None]   # the S_1 orbit of each c, in any sector
    for _ in range(N):
        walk = np.vstack([walk, perms[0][walk[-1]]])
    if (walk[1:N] == walk[0]).any() or (walk[N] != walk[0]).any():
        raise ValueError("S_1 has a cycle of length other than N")
    cycles = walk[:N, walk[:N].min(axis=0) == walk[0]].T   # (cycle, step)
    turn = np.cumsum(phases[:, 0, cycles], axis=2)     # (sector, cycle, step)
    if (turn[..., -1] % N).any():
        raise ValueError("S_1 has a cycle whose phase product is not 1")
    # V[c_k, j] = N^{-1/2} omega^(phases of the steps before k) on cycle j
    V = ctx.omega_pow(turn - phases[:, 0, cycles]) / np.sqrt(N)
    # S and a path permute the orbits alike (Weyl monomials commute up to a
    # phase): (S B - B S)[S perm c, c] = w[perm c] coef[c] - coef[S c] w[c]
    w = ctx.omega_pow(phases)
    res = [np.max(np.abs(w[:, i, perm] * coef - coef[..., p]
                         * w[:, i, None]), axis=(1, 2))
           for i, p in enumerate(perms)]
    BV = np.zeros((K, N * N, N), dtype=complex)     # (orbit, cycle j)
    np.add.at(BV, (np.arange(K)[:, None, None, None], perm[:, cycles],
                   np.arange(N)[:, None]),
              coef[..., cycles] * V[:, None])
    BV = BV[:, cycles]
    R = np.einsum("sik,sikj->sij", V.conj(), BV)
    res.append(np.max(np.abs(BV - V[..., None] * R[:, :, None]), axis=(1, 2, 3)))

    def lift(mu, u):
        # conj(V) u, orbit by orbit, then conj(S_2) as a scatter
        y, phi = np.take((V.conj() * u[..., None]).reshape(K, -1),
                         np.argsort(cycles, axis=None), axis=1), 0
        for k in range(N):
            phi = phi + np.exp(1j * k * k) * y
            y[:, perms[1]] = ctx.omega_pow(-phases[:, 1]) * y
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        Bt_phi = np.einsum("spc,spc->sc", coef, phi[:, perm])
        return phi, np.linalg.norm(Bt_phi - mu[:, None] * phi, axis=1) / scale

    return R, np.array(res).T / scale[:, None], lift


def transfer_pencil(chain: ChainParams, ctx: Context) -> TransferPencil:
    """The even coefficients of T(x) as dense operators, exact by x-degree:
    T_2k is the scatter of the `_path_entries` of degree 2k."""
    N, L = ctx.N, chain.L
    cols, weights, phases, degree = _path_entries(chain, ctx)
    T = np.zeros((L // 2 + 1, N ** L, N ** L), dtype=complex)
    T[degree[:, None] // 2, np.arange(N ** L), cols] = weights[:, None] * phases
    return TransferPencil(tuple(Operator(t, N, L) for t in T))


def _shift_diagonals(mat: np.ndarray, N: int, L: int) -> tuple:
    """(cols, D) with mat = sum_s D_s S_s over the patterns s in {0,1}^L: row
    r of S_s has its 1 at cols[s, r], the image of r under X^-s, and D[s, r]
    = mat[r, cols[s, r]].  The s in `np.indices` order are the a of
    `path_table` in reverse, so cols is `_path_columns` read backwards.  mat
    is the caller's to give up: the entries read are zeroed in place, and
    any nonzero left is off the pattern, which ValueError names."""
    rows, cols = np.arange(N ** L), _path_columns(N, L)[0][::-1]
    D = mat[rows, cols]
    mat[rows, cols] = 0
    if mat.any():
        r, c = np.divmod(np.flatnonzero(mat)[0], N ** L)
        raise ValueError(f"T(x) has a nonzero off its {2 ** L} shift "
                         f"diagonals at (row {r}, column {c})")
    return cols, D


def commutator_residual(chain: ChainParams, x: complex, xp: complex,
                        ctx: Context) -> float:
    """max |[T(x), T(x')]| over the entries, from the 2^L shift diagonals of
    the two dense `transfer_T` matrices; no dense product is formed.

    [A, B] = sum_u C_u S_u over u in {0,1,2}^L, C_u the sum over s + t = u of
    D^A_s S_s D^B_t S_s^-1 - (A <-> B).  For N >= 3 the S_u are disjoint
    permutations, so max|C| is the dense max-norm.  Each (s, t) term
    subtracts its two products, so x = x' gives exactly 0.0.
    """
    N, L = ctx.N, chain.L
    cols, A = _shift_diagonals(transfer_T(chain, x, ctx).mat, N, L)
    _, B = _shift_diagonals(transfer_T(chain, xp, ctx).mat, N, L)
    # s read in base 3: s + t has digits <= 2, so u(s + t) = u(s) + u(t)
    u = np.ravel_multi_index(np.indices((2,) * L).reshape(L, -1), (3,) * L)
    C = np.zeros((3 ** L, N ** L), dtype=complex)
    for s, cs in enumerate(cols):   # every t at once
        C[u[s] + u] += A[s] * B[:, cs] - B[s] * A[:, cs]
    return float(np.max(np.abs(C)))


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
    alpha, beta, gamma.  U, V, W are unitary, so (aU)^{-1} = U^H / a.  H has
    three nonzero cyclic diagonals: U on the main one, V and W^H = ZX below,
    V^H and W above.  Each entry is the dense sum's expression in numpy
    arithmetic (np.divide: Python's complex division rounds differently).
    """
    for name, value in zip(("mu", "nu", "rho", "alpha", "beta", "gamma"),
                           (mu, nu, rho, alpha, beta, gamma)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if alpha == 0 or beta == 0 or gamma == 0:
        raise ValueError("alpha, beta, gamma must be nonzero")
    N, k = ctx.N, np.arange(ctx.N)
    u, y = ctx.omega_pow(k), ctx.omega_pow(k + 1)   # Z at (k, k), ZX at (k+1, k)
    with np.errstate(over="ignore", invalid="ignore"):
        diags = np.array([mu * (alpha * u + u.conj() / alpha),
                          nu * beta + rho * (y / gamma),
                          nu * np.divide(1, beta) + rho * (gamma * y.conj())])
    if not np.isfinite(diags).all():
        raise ValueError("the Hamiltonian overflows: an entry is not finite")
    H = np.zeros((N, N), dtype=complex)
    H[k, k], H[(k + 1) % N, k], H[k, (k + 1) % N] = diags
    return Operator(H, N, 1)


def hofstadter_sector_factor(ctx: Context, l: int) -> complex:
    """gamma for which the sector-l restriction of q D^{-1/2} T_2 is H_FK.

    On the q^l eigenspace of D the W-term coefficient of the L=3
    degenerate transfer matrix reduces to gamma_l = (q^{-1} q^{l/2})^{-1}.
    """
    return 1.0 / (ctx.q_pow(-1) * ctx.q_half_pow(l))


def sector_spectrum(op: Operator, ctx: Context, L: int, l: int) -> np.ndarray:
    """Eigenvalues of op restricted to the q^l sector of D."""
    return np.linalg.eigvals(sector_project(op, sector_basis(ctx, L, l)))
