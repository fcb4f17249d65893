"""Complete solution of the rational-degenerate Bethe equation for L <= 3.

The functional equation

    Lambda_m(x) Q(x) = q^{-m} prod_j(1 - x c_j q^{-1}) Q(x/q)
                     + q^{m}  prod_j(1 + x c_j)        Q(xq)

is solved in closed form for L = 1, by a one-dimensional null-space solve
at the admissible eigenvalues for L = 2, and through the banded NxN matrix
whose eigenvalues are the admissible x^2 coefficients for L = 3.  The N
solutions of an L = 3 sector are solved as one stack (one SVD, one root
eigensolve, array residuals, records from its rows) with the same floating-
point operations, and so the same bits, as one solution at a time.  The
shift polynomials come from `baxter.shift_polys`, built once per solve.  The
solvers check no solution against diagonalization at run time: the tests
and `perfbench` compare them with `oracle_spectrum`, the brute-force
spectrum of the transfer pencil restricted to the shift-operator sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weylcore import Context, GenericityError, PoleError, is_int, worst
from .baxter import DegenerateChain, shift_polys
from .transfer import ChainParams, sector_pencil

NULLSPACE_GAP = 1e-6      # second singular value must exceed this times the largest
EIGEN_GAP = 1e-6          # matrix-A eigenvalues closer than this are nongeneric
CLUSTER_GAP = 1e-6        # oracle eigenvalues closer than this form one cluster


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


def _lambda_poly(lam: complex, m: int, ctx: Context) -> ComplexPolynomial:
    # from_array trims the trailing zero, so lam = 0 gives the constant
    lam0 = ctx.q_pow(m) + ctx.q_pow(-m)
    return ComplexPolynomial.from_array([lam0, 0.0, lam])


def _rbeq_residuals(lam_rows: np.ndarray, q_rows: np.ndarray, m: int,
                    chain: DegenerateChain, ctx: Context, shifts) -> np.ndarray:
    """Sampled defect of the rational-degenerate Bethe equation, per row pair.

    Rows hold the ascending coefficients of Lambda and Q.  Evaluated on a
    circle with more points than deg(LHS), normalized by the largest
    coefficient magnitude of the left-hand side.
    """
    lhs_coeffs = np.array([np.convolve(a, b) for a, b in zip(lam_rows, q_rows)])
    npts = lhs_coeffs.shape[1] + chain.L + 2
    xs = 0.9 * np.exp(2j * np.pi * np.arange(npts) / npts)
    scale = np.maximum(1.0, np.max(np.abs(lhs_coeffs), axis=1))
    # np.polyval over coefficient columns, one entry per row and grid point:
    # the same steps; Q once on the stacked grid (x, x/q, qx)
    grid = np.array([xs, xs * ctx.q_pow(-1), xs * ctx.q_pow(1)])
    q_x, q_m, q_p = np.polyval(q_rows.T[::-1, :, None, None], grid).swapaxes(0, 1)
    pm_x, pp_x = np.polyval(np.array(shifts).T[::-1, :, None], xs)
    lhs = np.polyval(lam_rows.T[::-1, :, None], xs) * q_x
    rhs = ctx.q_pow(-m) * pm_x * q_m + ctx.q_pow(m) * pp_x * q_p
    return np.max(np.abs(lhs - rhs), axis=1) / scale


def rbeq_residual(Q: ComplexPolynomial, Lambda: ComplexPolynomial, m: int,
                  chain: DegenerateChain, ctx: Context) -> float:
    """Sampled defect of the rational-degenerate Bethe equation; see `_rbeq_residuals`."""
    return float(_rbeq_residuals(Lambda.array()[None], Q.array()[None], m,
                                 chain, ctx, shift_polys(chain, ctx))[0])


def _coefficient_matrix(Lam: ComplexPolynomial, m: int, chain: DegenerateChain,
                        deg: int, ctx: Context, shifts=None) -> np.ndarray:
    """Exact coefficient-matching system G Q = 0 including top-degree rows.

    Column k holds the coefficients of Lambda x^k - q^{-m-k} Delta_- x^k
    - q^{m+k} Delta_+ x^k, one shifted diagonal per polynomial coefficient.
    """
    pm, pp = shifts or shift_polys(chain, ctx)
    k = np.arange(deg + 1)
    G = np.zeros((deg + max(chain.L, Lam.degree) + 1, deg + 1), dtype=complex)
    for i, a in enumerate(Lam.coeffs):
        G[k + i, k] += a
    # all L + 1 diagonals at once; q^-m pm_i, q^m pp_i as scalar products for their bits
    i = np.arange(chain.L + 1)[:, None]
    G[k + i, k] -= np.array([ctx.q_pow(-m) * a for a in pm])[:, None] * ctx.q_pow(-k) \
        + np.array([ctx.q_pow(m) * a for a in pp])[:, None] * ctx.q_pow(k)
    return G


def _solve_null_Q(lams, m: int, chain: DegenerateChain, deg: int,
                  ctx: Context, shifts) -> tuple:
    """Null vectors Q of the coefficient systems at each lam, Q(0) = 1, deg Q = deg.

    The systems differ only by lam on the x^2 diagonal and share one SVD.
    Returns the Q rows (ascending) before the first lam that fails a check,
    and that lam's GenericityError, or None.
    """
    k = np.arange(deg + 1)
    G = _coefficient_matrix(_lambda_poly(0.0, m, ctx), m, chain, deg, ctx, shifts)
    G = np.repeat(G[None], len(lams), axis=0)
    G[:, k + 2, k] += np.asarray(lams)[:, None]
    _, s, vt = np.linalg.svd(G, full_matrices=False)
    v = vt[:, -1].conj()
    q0 = np.abs(v[:, 0]) < 1e-10
    v = v / np.where(q0, 1.0, v[:, 0])[:, None]
    v[:, 0] = 1.0
    checks = {      # in the order a lam-by-lam solve raises them
        "no polynomial solution at Lambda={}": s[:, -1] > 1e-8 * np.maximum(s[:, 0], 1.0),
        "null space not one-dimensional at Lambda={}":
            s[:, -2] < NULLSPACE_GAP * s[:, 0] if deg else np.zeros_like(q0),
        "Q(0) vanishes; cannot normalize": q0,
        # on the untrimmed row: an exact zero must not pass as a lower degree
        "leading coefficient vanished; degree defect": np.abs(v[:, deg]) < 1e-8}
    fails = np.array(list(checks.values()))
    bad = np.flatnonzero(fails.any(axis=0))
    if not len(bad):
        return v, None
    i = bad[0]
    msg = list(checks)[np.argmax(fails[:, i])]
    return v[:i], GenericityError(msg.format(_lambda_poly(lams[i], m, ctx).array()))


def _ansatz_residuals(z, m: int, chain: DegenerateChain,
                      ctx: Context) -> np.ndarray:
    """Per-root defect of the product relation obtained at x = 1/z_l.

    One row of roots per solution; the first row with a pole raises.  The
    L=3 form carries prefactor q^{m+3/2}; the same substitution for general
    L gives exponent L + 2m + deg(Q), which reduces to m + 3/2 at L = 3.
    """
    z = np.asarray(z, dtype=complex)[:, :, None]
    zt = np.swapaxes(z, 1, 2)
    c = np.asarray(chain.c, dtype=complex)
    q = ctx.q_pow(1)
    pref = ctx.q_pow(chain.L + 2 * m + z.shape[1])
    den_c = q * z - c
    diag = np.arange(z.shape[1])    # the product over n skips n = l
    den_z = z - q * zt
    den_z[:, diag, diag] = 1.0
    hit_c = np.abs(den_c) < 1e-12
    hit_z = np.abs(den_z) < 1e-12
    if hit_c.any() or hit_z.any():
        hit_c, hit_z = np.argwhere(hit_c), np.argwhere(hit_z)
        if len(hit_c) and (not len(hit_z) or hit_c[0, 0] <= hit_z[0, 0]):
            raise PoleError(f"Bethe-ansatz pole: q z_l = c_j at root {hit_c[0, 1]}")
        raise PoleError("Bethe-ansatz pole: z_l = q z_n at roots "
                        f"{hit_z[0, 1]},{hit_z[0, 2]}")
    num = np.prod((z + c) / den_c, axis=2)
    ratio = (q * z - zt) / den_z
    ratio[:, diag, diag] = 1.0
    return np.abs(pref * num - np.prod(ratio, axis=2))


def _solution(m: int, lams, Q: np.ndarray, chain: DegenerateChain,
              ctx: Context, shifts, error=None) -> list:
    """Bundle each row of Q, the solution at lams[i], with its Lambda, roots
    and residuals.  `error` belongs to the lam after the last row, so a pole
    in a row raises first, as in a lam-by-lam solve."""
    # read highest-first, a row of Q is x^deg Q(1/x), whose roots are the z_l
    # themselves; np.roots's companion matrix, which strips nothing here
    # because Q(0) = 1 and the top coefficient is nonzero
    comp = np.repeat(np.eye(Q.shape[1] - 1, k=-1, dtype=complex)[None], len(Q), 0)
    comp[:, :1] = -Q[:, None, 1:] / Q[:, None, :1]
    roots = np.linalg.eigvals(comp)
    ansatz = _ansatz_residuals(roots, m, chain, ctx)
    if error is not None:
        raise error
    # rows of Lambda = q^m + q^-m + lam x^2, L = 1's lam = 0 trimmed like _lambda_poly
    lams = np.asarray(lams)
    lam_rows = np.zeros((len(lams), 3 if lams.any() else 1), dtype=complex)
    lam_rows[:, 0] = ctx.q_pow(m) + ctx.q_pow(-m)
    lam_rows[:, 2:] = lams[:, None]
    rbeq = _rbeq_residuals(lam_rows, Q, m, chain, ctx, shifts)
    # Q rows need no trim: solve_L1's is trimmed, the others passed |Q_deg| >= 1e-8
    rows = zip(lams.tolist(), lam_rows.tolist(), Q.tolist(), roots.tolist(),
               rbeq.tolist(), ansatz.tolist())
    return [BetheSolution(m, lam, ComplexPolynomial(tuple(lam_row)),
                          ComplexPolynomial(tuple(q)), tuple(zs), r, tuple(a))
            for lam, lam_row, q, zs, r, a in rows]


def _check_sector(name: str, m, M=None):
    """Refuse a sector that is not an integer, or not in [0, M] if M is given."""
    if not is_int(m):
        raise ValueError(f"sector {name} must be an integer, got {m!r}")
    if M is not None and not 0 <= m <= M:
        raise ValueError(f"sector {name} must be in [0, {M}], got {m}")


def solve_L1(m: int, c0: complex, ctx: Context) -> BetheSolution:
    """Closed-form single-site solution: Lambda = q^m + q^{-m}, deg Q = M - m."""
    M = ctx.M
    _check_sector("m", m, M)
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
    chain = DegenerateChain((c0,))
    Q = ComplexPolynomial.from_array(coeffs).array()[None]
    return _solution(m, [0.0], Q, chain, ctx, shift_polys(chain, ctx))[0]


def solve_L2(m: int, mp: int, c0: complex, c1: complex,
             ctx: Context) -> BetheSolution:
    """Two-site solve: Lambda fixed by (m, m'), Q of exact degree M - m + m'."""
    M = ctx.M
    _check_sector("m", m, M)
    _check_sector("m'", mp, M)
    lam = ctx.q_half_pow(1) * (ctx.q_pow(mp - 1) + ctx.q_pow(-mp - 2)) * c0 * c1
    chain = DegenerateChain((c0, c1))
    shifts = shift_polys(chain, ctx)
    Q, error = _solve_null_Q([lam], m, chain, M - m + mp, ctx, shifts)
    return _solution(m, [lam], Q, chain, ctx, shifts, error)[0]


def matrix_A(m: int, c, ctx: Context, shifts=None) -> np.ndarray:
    """Banded N x N matrix of sector m whose eigenvalues are the admissible
    lambda_m: row i (1-indexed from the top) carries diagonal delta'_{N-i},
    superdiagonal u'_{N-i}, subdiagonal v'_{N-i}, sub-subdiagonal w'_{N-i}.
    `shifts` is `shift_polys` of c, if already built."""
    _check_sector("m", m)
    if len(c) != 3:
        raise ValueError("matrix_A takes exactly three chain parameters")
    s1, s2, s3 = (shifts or shift_polys(DegenerateChain(tuple(c)), ctx))[1][1:]
    qh = ctx.q_half_pow
    N = ctx.N
    k = np.arange(N)[::-1]      # row r carries k = N - 1 - r
    q_k, q_mk1 = ctx.q_pow(k), ctx.q_pow(-k - 1) * qh(-1)      # q^k, q^{-k-3/2}
    # w'_k = q^{k+3/2} + q^{-k-3/2} - q^m - q^{-m}
    w = ctx.q_pow(k + 1) * qh(1) + q_mk1 - ctx.q_pow(m) - ctx.q_pow(-m)
    # v'_k = (q^{k+1/2} - q^{-k-3/2}) s1
    v = (q_k * qh(1) - q_mk1) * s1
    # delta'_k = (q^{k-1/2} + q^{-k-3/2}) s2
    d = (q_k * qh(-1) + q_mk1) * s2
    # u'_k = (q^{k-3/2} - q^{-k-3/2}) s3
    u = (ctx.q_pow(k - 1) * qh(-1) - q_mk1) * s3
    A = np.zeros((N, N), dtype=complex)    # bands added to it: 0 + x turns -0 to +0
    for start, band in ((0, d), (1, u[:-1]), (N, v[1:]), (2 * N, w[2:])):
        A.reshape(-1)[start::N + 1] += band
    return A


def solve_L3(m: int, c, ctx: Context) -> list:
    """All N Bethe solutions of sector m for the three-site chain.

    One solution per eigenvalue lambda of matrix_A; each Q has exact
    degree 3M - m with Q(0) = 1, certified by a one-dimensional null
    space of the coefficient system.  The N solutions are solved as one
    stack, in lambda order, and a failure raises for the first lambda
    that has one.
    """
    M = ctx.M
    _check_sector("m", m, M)
    chain = DegenerateChain(tuple(c))
    shifts = shift_polys(chain, ctx)
    lams = np.linalg.eigvals(matrix_A(m, c, ctx, shifts))
    lams = lams[np.lexsort((lams.imag, lams.real))]
    if np.count_nonzero(np.abs(lams[:, None] - lams) < EIGEN_GAP) > len(lams):
        raise GenericityError("matrix_A has near-degenerate eigenvalues")
    Q, error = _solve_null_Q(lams, m, chain, 3 * M - m, ctx, shifts)
    return _solution(m, lams, Q, chain, ctx, shifts, error)


def bethe_ansatz_residuals(sol: BetheSolution, c, ctx: Context) -> list:
    """Per-root defect of q^{m+3/2} prod (z+c_j)/(qz-c_j) = prod (qz-z_n)/(z-q z_n)."""
    if len(c) != 3:
        raise ValueError("the product relation is over three sites")
    chain = DegenerateChain(tuple(c))
    expected = 3 * ctx.M - sol.m
    if len(sol.roots) != expected:
        raise ValueError(f"expected {expected} roots, got {len(sol.roots)}")
    return _ansatz_residuals([sol.roots], sol.m, chain, ctx)[0].tolist()


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


def oracle_spectrum(chain: ChainParams, l: int, ctx: Context) -> np.ndarray:
    """Brute-force eigenvalues of the x^2 pencil coefficient on sector l.

    Independent of the Bethe machinery: diagonalizes the dense
    N^(L-1) x N^(L-1) sector block of `sector_pencil`.  For L = 1 the
    pencil is constant and the coefficient is zero.
    """
    if chain.L > 3:
        raise ValueError("oracle supports L <= 3")
    blocks = sector_pencil(chain, ctx, l)
    if len(blocks) == 1:
        return np.zeros(len(blocks[0]), dtype=complex)
    return np.linalg.eigvals(blocks[1])


def cluster_eigenvalues(values) -> list:
    """Group a multiset of eigenvalues into (value, multiplicity) clusters.

    Values are visited in (re, im) order and each joins the nearest cluster
    whose running mean lies within CLUSTER_GAP.  Clusters whose real parts
    agree to roundoff interleave in that order, so every cluster is compared,
    not only the last one opened.
    """
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    clusters = []       # [sum, count], in order of first member
    for v in vals:
        dist, i = min(((abs(v - s / k), i) for i, (s, k) in enumerate(clusters)),
                      default=(CLUSTER_GAP, None))
        if dist < CLUSTER_GAP:
            clusters[i][0] += v
            clusters[i][1] += 1
        else:
            clusters.append([v, 1])
    return [(s / k, k) for s, k in clusters]


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
