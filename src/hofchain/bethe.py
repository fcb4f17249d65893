"""Complete solution of the rational-degenerate Bethe equation for L <= 3.

The functional equation

    Lambda_m(x) Q(x) = q^{-m} prod_j(1 - x c_j q^{-1}) Q(x/q)
                     + q^{m}  prod_j(1 + x c_j)        Q(xq)

is solved in closed form for L = 1, by a one-dimensional null-space solve
at the admissible eigenvalues for L = 2, and through the banded NxN matrix
whose eigenvalues are the admissible x^2 coefficients for L = 3.  Every
solution is cross-checked against brute-force diagonalization of the
transfer pencil restricted to the shift-operator sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weylcore import Context, GenericityError, PoleError
from .baxter import DegenerateChain
from .transfer import ChainParams, sector_pencil

NULLSPACE_GAP = 1e-6      # second singular value must exceed this times the largest
EIGEN_GAP = 1e-6          # matrix-A eigenvalues closer than this are nongeneric


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense complex polynomial, coefficients ascending in degree."""

    coeffs: tuple

    @classmethod
    def from_array(cls, arr) -> "ComplexPolynomial":
        a = np.asarray(arr, dtype=complex)
        n = len(a)
        while n > 1 and a[n - 1] == 0:
            n -= 1
        return cls(tuple(a[:n]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation at a scalar or elementwise over an array."""
        return np.polyval(self.coeffs[::-1], x)

    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


@dataclass(frozen=True)
class BetheSolution:
    m: int
    lam: complex                    # x^2 coefficient of Lambda_m
    Lambda_poly: ComplexPolynomial
    Q: ComplexPolynomial
    roots: tuple                    # reciprocals z_l of the roots of Q
    rbeq_residual: float
    ansatz_residuals: tuple = field(default=())


def _shift_polys(chain: DegenerateChain, ctx: Context):
    """Coefficients of prod(1 - x c_j q^{-1}) and prod(1 + x c_j)."""
    pm = np.array([1.0 + 0.0j])
    pp = np.array([1.0 + 0.0j])
    for cj in chain.c:
        pm = np.convolve(pm, np.array([1.0, -cj * ctx.q_pow(-1)]))
        pp = np.convolve(pp, np.array([1.0, cj]))
    return pm, pp


def _lambda_poly(lam: complex, m: int, ctx: Context) -> ComplexPolynomial:
    # from_array trims the trailing zero, so lam = 0 gives the constant
    lam0 = ctx.q_pow(m) + ctx.q_pow(-m)
    return ComplexPolynomial.from_array([lam0, 0.0, lam])


def rbeq_residual(Q: ComplexPolynomial, Lambda: ComplexPolynomial, m: int,
                  chain: DegenerateChain, ctx: Context) -> float:
    """Sampled defect of the rational-degenerate Bethe equation.

    Evaluated on a circle with more points than deg(LHS), normalized by
    the largest coefficient magnitude of the left-hand side.
    """
    pm, pp = _shift_polys(chain, ctx)
    lhs_coeffs = np.convolve(Lambda.array(), Q.array())
    npts = len(lhs_coeffs) + chain.L + 2
    xs = 0.9 * np.exp(2j * np.pi * np.arange(npts) / npts)
    scale = max(1.0, float(np.max(np.abs(lhs_coeffs))))
    lhs = Lambda(xs) * Q(xs)
    rhs = ctx.q_pow(-m) * np.polyval(pm[::-1], xs) * Q(xs * ctx.q_pow(-1)) \
        + ctx.q_pow(m) * np.polyval(pp[::-1], xs) * Q(xs * ctx.q_pow(1))
    return float(np.max(np.abs(lhs - rhs))) / scale


def _coefficient_matrix(lam: complex, m: int, chain: DegenerateChain,
                        deg: int, ctx: Context) -> np.ndarray:
    """Exact coefficient-matching system G Q = 0 including top-degree rows."""
    L = chain.L
    pm, pp = _shift_polys(chain, ctx)
    lam0 = ctx.q_pow(m) + ctx.q_pow(-m)
    G = np.zeros((deg + max(L, 2) + 1, deg + 1), dtype=complex)
    for k in range(deg + 1):
        G[k, k] += lam0
        G[k + 2, k] += lam
        for i in range(L + 1):
            G[k + i, k] -= ctx.q_pow(-m) * pm[i] * ctx.q_pow(-k) \
                + ctx.q_pow(m) * pp[i] * ctx.q_pow(k)
    return G


def _solve_null_Q(lam: complex, m: int, chain: DegenerateChain, deg: int,
                  ctx: Context) -> ComplexPolynomial:
    """One-dimensional null vector of the coefficient system, Q(0) = 1, deg Q = deg."""
    G = _coefficient_matrix(lam, m, chain, deg, ctx)
    _, s, vt = np.linalg.svd(G)
    if s[-1] > 1e-8 * max(s[0], 1.0):
        raise GenericityError(f"no polynomial solution at lambda={lam}")
    if len(s) > 1 and s[-2] < NULLSPACE_GAP * s[0]:
        raise GenericityError(f"null space not one-dimensional at lambda={lam}")
    v = vt[-1].conj()
    if abs(v[0]) < 1e-10:
        raise GenericityError("Q(0) vanishes; cannot normalize")
    v = v / v[0]
    v[0] = 1.0
    Q = ComplexPolynomial.from_array(v)
    if abs(Q.coeffs[-1]) < 1e-8:
        raise GenericityError("leading coefficient vanished; degree defect")
    return Q


def _ansatz_residuals(roots, m: int, chain: DegenerateChain,
                      ctx: Context) -> tuple:
    """Per-root defect of the product relation obtained at x = 1/z_l.

    The L=3 form carries prefactor q^{m+3/2}; the same substitution for
    general L gives exponent L + 2m + deg(Q), which reduces to m + 3/2 at
    L = 3.
    """
    z = np.asarray(roots, dtype=complex)[:, None]
    c = np.asarray(chain.c, dtype=complex)
    q = ctx.q_pow(1)
    pref = ctx.q_pow(chain.L + 2 * m + len(z))
    den_c = q * z - c
    hit = np.argwhere(np.abs(den_c) < 1e-12)
    if len(hit):
        raise PoleError(f"Bethe-ansatz pole: q z_l = c_j at root {hit[0, 0]}")
    off = ~np.eye(len(z), dtype=bool)     # the product over n skips n = l
    den_z = np.where(off, z - q * z.T, 1.0)
    hit = np.argwhere(off & (np.abs(den_z) < 1e-12))
    if len(hit):
        raise PoleError("Bethe-ansatz pole: z_l = q z_n at roots "
                        f"{hit[0, 0]},{hit[0, 1]}")
    num = np.prod((z + c) / den_c, axis=1)
    rhs = np.prod(np.where(off, (q * z - z.T) / den_z, 1.0), axis=1)
    return tuple(np.abs(pref * num - rhs).tolist())


def _solution(m: int, lam: complex, Q: ComplexPolynomial,
              chain: DegenerateChain, ctx: Context) -> BetheSolution:
    """Bundle Q with its eigenvalue polynomial, roots and residuals."""
    Lam = _lambda_poly(lam, m, ctx)
    # read highest-first, the ascending coefficients of Q are the reversed
    # polynomial x^deg Q(1/x), whose roots are the z_l themselves
    roots = tuple(np.roots(Q.array()))
    return BetheSolution(m=m, lam=lam, Lambda_poly=Lam, Q=Q, roots=roots,
                         rbeq_residual=rbeq_residual(Q, Lam, m, chain, ctx),
                         ansatz_residuals=_ansatz_residuals(roots, m, chain, ctx))


def solve_L1(m: int, c0: complex, ctx: Context) -> BetheSolution:
    """Closed-form single-site solution: Lambda = q^m + q^{-m}, deg Q = M - m."""
    M = ctx.M
    if not 0 <= m <= M:
        raise ValueError(f"sector m must be in [0, {M}]")
    if c0 == 0:
        raise ValueError("c0 must be nonzero")
    coeffs = [1.0 + 0.0j]
    prod = 1.0 + 0.0j
    for i in range(1, M - m + 1):
        den = ctx.q_pow(m) + ctx.q_pow(-m) - ctx.q_pow(-m - i) - ctx.q_pow(m + i)
        if abs(den) < 1e-12:
            raise GenericityError(f"degenerate denominator at i={i}")
        prod *= (ctx.q_pow(m + i - 1) - ctx.q_pow(-m - i)) / den
        coeffs.append(prod * c0**i)
    return _solution(m, 0.0, ComplexPolynomial.from_array(coeffs),
                     DegenerateChain((c0,)), ctx)


def solve_L2(m: int, mp: int, c0: complex, c1: complex,
             ctx: Context) -> BetheSolution:
    """Two-site solve: Lambda fixed by (m, m'), Q of exact degree M - m + m'."""
    M = ctx.M
    if not (0 <= m <= M and 0 <= mp <= M):
        raise ValueError(f"sectors must be in [0, {M}]")
    lam = ctx.q_half_pow(1) * (ctx.q_pow(mp - 1) + ctx.q_pow(-mp - 2)) * c0 * c1
    chain = DegenerateChain((c0, c1))
    return _solution(m, lam, _solve_null_Q(lam, m, chain, M - m + mp, ctx),
                     chain, ctx)


@dataclass(frozen=True)
class MatrixA:
    """Banded N x N matrix whose eigenvalues are the admissible lambda_m.

    Row i (1-indexed from the top) carries diagonal delta'_{N-i},
    superdiagonal u'_{N-i}, subdiagonal v'_{N-i}, sub-subdiagonal w'_{N-i}.
    """

    mat: np.ndarray
    m: int


def matrix_A(m: int, c, ctx: Context) -> MatrixA:
    if len(c) != 3:
        raise ValueError("matrix_A takes exactly three chain parameters")
    if any(cj == 0 for cj in c):
        raise ValueError("all c_j must be nonzero")
    N = ctx.N
    s1 = c[0] + c[1] + c[2]
    s2 = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
    s3 = c[0] * c[1] * c[2]
    qh = ctx.q_half_pow

    def w_(k):  # q^{k+3/2} + q^{-k-3/2} - q^m - q^{-m}
        return ctx.q_pow(k + 1) * qh(1) + ctx.q_pow(-k - 1) * qh(-1) \
            - ctx.q_pow(m) - ctx.q_pow(-m)

    def v_(k):  # (q^{k+1/2} - q^{-k-3/2}) s1
        return (ctx.q_pow(k) * qh(1) - ctx.q_pow(-k - 1) * qh(-1)) * s1

    def d_(k):  # (q^{k-1/2} + q^{-k-3/2}) s2
        return (ctx.q_pow(k) * qh(-1) + ctx.q_pow(-k - 1) * qh(-1)) * s2

    def u_(k):  # (q^{k-3/2} - q^{-k-3/2}) s3
        return (ctx.q_pow(k - 1) * qh(-1) - ctx.q_pow(-k - 1) * qh(-1)) * s3

    A = np.zeros((N, N), dtype=complex)
    for r in range(N):
        k = N - 1 - r
        A[r, r] = d_(k)
        if r + 1 < N:
            A[r, r + 1] = u_(k)
        if r >= 1:
            A[r, r - 1] = v_(k)
        if r >= 2:
            A[r, r - 2] = w_(k)
    return MatrixA(mat=A, m=m)


def solve_L3(m: int, c, ctx: Context) -> list:
    """All N Bethe solutions of sector m for the three-site chain.

    One solution per eigenvalue lambda of matrix_A; each Q has exact
    degree 3M - m with Q(0) = 1, certified by a one-dimensional null
    space of the coefficient system.
    """
    M = ctx.M
    if not 0 <= m <= M:
        raise ValueError(f"sector m must be in [0, {M}]")
    A = matrix_A(m, c, ctx)
    lams = np.linalg.eigvals(A.mat)
    order = np.lexsort((lams.imag, lams.real))
    lams = lams[order]
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i] - lams[j]) < EIGEN_GAP:
                raise GenericityError("matrix_A has near-degenerate eigenvalues")
    chain = DegenerateChain(tuple(c))
    return [_solution(m, lam, _solve_null_Q(lam, m, chain, 3 * M - m, ctx),
                      chain, ctx)
            for lam in lams]


def bethe_ansatz_residuals(sol: BetheSolution, c, ctx: Context) -> list:
    """Per-root defect of q^{m+3/2} prod (z+c_j)/(qz-c_j) = prod (qz-z_n)/(z-q z_n)."""
    if len(c) != 3:
        raise ValueError("the product relation is over three sites")
    chain = DegenerateChain(tuple(c))
    expected = 3 * ctx.M - sol.m
    if len(sol.roots) != expected:
        raise ValueError(f"expected {expected} roots, got {len(sol.roots)}")
    return list(_ansatz_residuals(sol.roots, sol.m, chain, ctx))


def lambda_M_from_roots(roots, c, ctx: Context) -> complex:
    """Sector-M eigenvalue from the symmetric functions of the root reciprocals.

    s1, s2 are the first and second elementary symmetric polynomials of
    (c_0, c_1, c_2).  The x coefficient carries (q^{-3/2} - q^{1/2}); the
    x^2-coefficient comparison of the Bethe equation fixes this sign.
    """
    if len(c) != 3:
        raise ValueError("three chain parameters required")
    z = np.asarray(roots, dtype=complex)
    if len(z) != 2 * ctx.M:
        raise ValueError(f"sector M has 2M = {2 * ctx.M} roots, got {len(z)}")
    s1 = c[0] + c[1] + c[2]
    s2 = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
    e1 = complex(np.sum(z))
    e2 = complex((np.sum(z)**2 - np.sum(z * z)) / 2.0)
    qh = ctx.q_half_pow
    return ((qh(-1) + ctx.q_pow(-1) * qh(-1)) * s2
            + (ctx.q_pow(-1) * qh(-1) - qh(1)) * s1 * e1
            + (ctx.q_pow(1) * qh(1) + ctx.q_pow(-1) * qh(-1) - qh(1) - qh(-1)) * e2)


def oracle_spectrum(chain: ChainParams, l: int, ctx: Context) -> np.ndarray:
    """Brute-force eigenvalues of the x^2 pencil coefficient on sector l.

    Independent of the Bethe machinery: applies the transfer pencil to the
    exact shift-operator sector basis and diagonalizes the dense
    N^(L-1) x N^(L-1) block.  For L = 1 the pencil is constant and the
    coefficient is zero.
    """
    if chain.L > 3:
        raise ValueError("oracle supports L <= 3")
    blocks = sector_pencil(chain, ctx, l)
    if len(blocks) == 1:
        return np.zeros(len(blocks[0]), dtype=complex)
    return np.linalg.eigvals(blocks[1])


def cluster_eigenvalues(values, gap: float = 1e-6) -> list:
    """Group a multiset of eigenvalues into (value, multiplicity) clusters."""
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0] / clusters[-1][1]) < gap:
            s, k = clusters[-1]
            clusters[-1] = (s + v, k + 1)
        else:
            clusters.append((v, 1))
    return [(s / k, k) for s, k in clusters]


def multiset_match(a, b, tol: float = 1e-8) -> float:
    """Greedy nearest-neighbor matching distance between equal-size multisets.

    Returns the largest matched distance; raises if sizes differ.  Callers
    compare the result against `tol`.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    worst = 0.0
    for va in a:
        j = int(np.argmin([abs(va - vb) for vb in b]))
        worst = max(worst, abs(va - b[j]))
        b.pop(j)
    return worst
