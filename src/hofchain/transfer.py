"""L-operators, R-matrix, transfer matrices and flux Hamiltonians.

The local L-operator for a projective site parameter h = [a:b:c:d] is the
2x2 block matrix (aY, xbX; xcZ, d) acting on aux (2-dim) x quantum (N-dim).
Chains multiply in the auxiliary space and tensor in the quantum space;
the transfer matrix is the auxiliary trace, read everywhere as the sum
over the Weyl paths of `path_table`, and forms a commuting family in x.
The product of dense local L-operators, the independent reference the tests
hold T(x) to, is `tests/oracle.py`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .weylcore import (Context, Operator, PoleError, read_only, sector_basis,
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
        for name, value in zip("abcd", (self.a, self.b, self.c, self.d)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
    N^L x N^L matrix.  Tests hold it to chain_L(chain, x, ctx).trace_aux()
    of `tests/oracle.py`."""
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
    """max |[T(x), T(x')]| over the entries, from the 2^L shift diagonals D
    of one dense `transfer_T(chain, 1)`; no dense product is formed.

    Diagonal s holds one path of the auxiliary trace, whose x-dependence is
    x^d with d the number of j where s_j != s_(j+1 mod L), so D x^d and
    D x'^d are the diagonals of A = T(x) and B = T(x').
    [A, B] = sum_u C_u S_u over u in {0,1,2}^L, C_u the sum over s + t = u of
    D^A_s S_s D^B_t S_s^-1 - (A <-> B).  For N >= 3 the S_u are disjoint
    permutations, so max|C| is the dense max-norm.  Each (s, t) term
    subtracts its two products, so x = x' gives exactly 0.0.
    """
    N, L = ctx.N, chain.L
    cols, D = _shift_diagonals(transfer_T(chain, 1.0, ctx).mat, N, L)
    pats = np.indices((2,) * L).reshape(L, -1)      # column s is pattern s
    d = np.count_nonzero(pats != np.roll(pats, -1, axis=0), axis=0)[:, None]
    A, B = D * x ** d, D * xp ** d
    # s read in base 3: s + t has digits <= 2, so u(s + t) = u(s) + u(t)
    u = np.ravel_multi_index(pats, (3,) * L)
    C = np.zeros((3 ** L, N ** L), dtype=complex)
    for s, cs in enumerate(cols):   # every t at once
        C[u[s] + u] += A[s] * B[:, cs] - B[s] * A[:, cs]
    return float(np.max(np.abs(C)))


def hamiltonian_params(mu, nu, rho, alpha, beta, gamma) -> tuple:
    """The flux Hamiltonian's six coefficients, as given, refused unless each
    is finite and alpha, beta, gamma are nonzero."""
    params = (mu, nu, rho, alpha, beta, gamma)
    for name, value in zip(("mu", "nu", "rho", "alpha", "beta", "gamma"),
                           params):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if alpha == 0 or beta == 0 or gamma == 0:
        raise ValueError("alpha, beta, gamma must be nonzero")
    return params


def flux_diagonals(roots: np.ndarray, params: tuple) -> np.ndarray:
    """The three nonzero cyclic diagonals of the flux Hamiltonian, (F, 3, N),
    for F fluxes of one N: row f of roots is omega_f^k, k in [0, N), and
    params is what `hamiltonian_params` returns.  Per flux: U on the main
    diagonal, V and W^H = ZX below it, V^H and W above (see
    `hofstadter_hamiltonian`).  Each entry is the dense sum's expression in
    numpy arithmetic (np.divide: Python's complex division rounds
    differently), and an entry that is not finite is refused.
    """
    mu, nu, rho, alpha, beta, gamma = params
    u, y = roots, np.roll(roots, -1, axis=-1)   # Z at (k, k), ZX at (k+1, k)
    with np.errstate(over="ignore", invalid="ignore"):
        diags = np.stack([mu * (alpha * u + u.conj() / alpha),
                          nu * beta + rho * (y / gamma),
                          nu * np.divide(1, beta) + rho * (gamma * y.conj())],
                         axis=-2)
    if not np.isfinite(diags).all():
        raise ValueError("the Hamiltonian overflows: an entry is not finite")
    return diags


def fill_hamiltonian(H: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """Write one flux's (3, N) `flux_diagonals` into the N x N array H, in
    place, and return H; its other entries are left as they are."""
    N = len(H)
    k = np.arange(N)
    H[k, k], H[(k + 1) % N, k], H[k, (k + 1) % N] = diags
    return H


def hofstadter_hamiltonian(ctx: Context, mu, nu, rho, alpha, beta, gamma) -> Operator:
    """The N x N flux Hamiltonian mu(aU + 1/(aU)) + nu(bV + ..) + rho(cW + ..).

    Canonical Weyl triple on C^N: U = Z, V = X, W = (ZX)^{-1}, which
    satisfies UV = omega VU, VW = omega WV, WU = omega UW and the N-th
    power identities.  Hermitian for real mu, nu, rho and unit-modulus
    alpha, beta, gamma.  U, V, W are unitary, so (aU)^{-1} = U^H / a.  H is
    the one-flux case of `flux_diagonals`, scattered into zeros.
    """
    (diags,) = flux_diagonals(ctx.omega_pow(np.arange(ctx.N))[None],
                              hamiltonian_params(mu, nu, rho, alpha, beta,
                                                 gamma))
    H = fill_hamiltonian(np.zeros((ctx.N, ctx.N), dtype=complex), diags)
    return Operator(H, ctx.N, 1)


def sector_spectrum(op: Operator, ctx: Context, L: int, l: int) -> np.ndarray:
    """Eigenvalues of op restricted to the q^l sector of D."""
    return np.linalg.eigvals(sector_project(op, sector_basis(ctx, L, l)))
