"""Roots-of-unity arithmetic, Weyl-pair matrices, and tensor plumbing.

Everything downstream is built on an odd integer N, a primitive N-th root
of unity omega = exp(2*pi*i*P/N), and the canonical in-lattice square
roots q = omega**(M+1), q_half = q**(M+1) (N = 2M+1).  Keeping every
scalar inside the cyclic group generated by omega avoids branch cuts:
all powers are computed from a single table of exp(2*pi*i*P*j/N), with
exponents reduced mod N.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

POLE_TOL = 1e-13    # a denominator below this in modulus is a pole: PoleError


class PoleError(ValueError):
    """A formula was evaluated at one of its explicit pole loci."""


class TagMismatchError(ValueError):
    """Operators built over different contexts were combined."""


class GenericityError(RuntimeError):
    """A genericity assumption failed (degenerate eigenvalues, fat null space).

    Callers are expected to redraw parameters and retry; see
    `with_generic_redraw`.
    """


def is_int(value) -> bool:
    """An integer, and not a bool, which Python counts as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Context:
    """Arithmetic ground: N, P and the derived unit-modulus constants.

    Invariants (checked by `make_context`): N = 2M+1 odd >= 3, gcd(P, N) = 1,
    omega primitive, q**2 = omega, q**N = 1, q_half**2 = q.
    """

    N: int
    P: int
    M: int
    omega: complex
    q: complex
    q_half: complex
    _roots: np.ndarray = field(repr=False, compare=False)   # read-only

    # each lookup takes an int or an integer array (elementwise, same shape)
    def omega_pow(self, e):
        return self._roots[e % self.N]

    def q_pow(self, e):
        """q**e = omega**((M+1) e)."""
        return self._roots[(self.M + 1) * e % self.N]

    def q_half_pow(self, e):
        """q**(e/2) as a lattice element: q_half**e = omega**((M+1)^2 e)."""
        return self._roots[(self.M + 1) ** 2 * e % self.N]


def flux_roots(N: int, P) -> np.ndarray:
    """exp(2 pi i P j / N) for j in [0, N), shape np.shape(P) + (N,): one row
    of roots of unity per flux.  The argument is ((2 pi P) j) / N in floats,
    as Python's complex arithmetic forms 2j pi P j / N, so each root keeps
    the bits of the one-flux expression."""
    theta = (2 * np.pi * np.asarray(P))[..., None] * np.arange(N) / N
    return np.exp(1j * theta)


def make_context(N: int, P: int = 1) -> Context:
    """Build the arithmetic context for odd N >= 3 and gcd(P, N) = 1."""
    if N % 2 == 0 or N < 3:
        raise ValueError(f"N must be odd and >= 3, got {N}")
    if math.gcd(P, N) != 1:
        raise ValueError(f"P must be coprime to N, got gcd({P}, {N}) != 1")
    M = (N - 1) // 2
    roots = flux_roots(N, P)
    roots.flags.writeable = False
    return Context(N=N, P=P, M=M, omega=roots[1 % N], q=roots[(M + 1) % N],
                   q_half=roots[((M + 1) * (M + 1)) % N], _roots=roots)


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix on the N**sites quantum space, tagged (N, sites)."""

    mat: np.ndarray
    n: int
    sites: int

    def __post_init__(self):
        d = self.n ** self.sites
        if self.mat.shape != (d, d):
            raise ValueError(f"operator shape {self.mat.shape} != ({d}, {d})")

    @property
    def dim(self) -> int:
        return self.n ** self.sites

    @property
    def ctx_tag(self):
        return (self.n, self.sites)

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.mat + other.mat, self.n, self.sites)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.mat - other.mat, self.n, self.sites)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.mat @ other.mat, self.n, self.sites)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.mat * scalar, self.n, self.sites)

    __rmul__ = __mul__

    def _check(self, other: "Operator"):
        if self.ctx_tag != other.ctx_tag:
            raise TagMismatchError(f"tags differ: {self.ctx_tag} vs {other.ctx_tag}")


def identity_op(ctx: Context) -> Operator:
    return Operator(np.eye(ctx.N, dtype=complex), ctx.N, 1)


def weyl_matrices(ctx: Context) -> dict:
    """The Weyl pair and their product on C^N.

    Z|k> = omega^k |k>, X|k> = |k+1>, Y = ZX; ZX = omega XZ and
    X^N = Z^N = I hold as exact matrix identities up to roundoff.
    """
    N = ctx.N
    X = np.roll(np.eye(N, dtype=complex), 1, axis=0)
    Z = np.diag(ctx.omega_pow(np.arange(N)))
    return {"X": Operator(X, N, 1), "Z": Operator(Z, N, 1),
            "Y": Operator(Z @ X, N, 1)}


def kron(ops) -> Operator:
    """Tensor product of operators in the given order."""
    ops = list(ops)
    if not ops:
        raise ValueError("kron of empty list")
    if any(op.n != ops[0].n for op in ops):
        raise TagMismatchError(f"mixed N in kron: {[op.n for op in ops]}")
    return Operator(reduce(np.kron, [op.mat for op in ops]), ops[0].n,
                    sum(op.sites for op in ops))


def pochhammer(a, rho: complex, n):
    """rho-shifted factorial (a; rho)_n = (1-a)(1-a rho)...(1-a rho^(n-1)).

    Broadcasts over an array `a` and an integer array `n`; scalar inputs
    return a complex.  The factors a rho^i are accumulated by repeated
    multiplication and the partial products by `cumprod`, in the order a
    scalar loop would take.
    """
    a = np.asarray(a, dtype=complex)
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"pochhammer order must be >= 0, got {n}")
    top = int(n.max(initial=0))
    steps = np.full(a.shape + (top,), complex(rho))
    steps[..., :1] = a[..., None]
    table = np.ones(a.shape + (top + 1,), dtype=complex)
    table[..., 1:] = np.cumprod(1.0 - np.cumprod(steps, axis=-1), axis=-1)
    shape = np.broadcast_shapes(a.shape, n.shape)
    out = np.take_along_axis(np.broadcast_to(table, shape + (top + 1,)),
                             np.broadcast_to(n, shape)[..., None], axis=-1)[..., 0]
    return complex(out) if out.ndim == 0 else out


def global_shift_D(ctx: Context, L: int) -> Operator:
    """D = q^{-L} (tensor power of Y); unitary, D^N = I, spectrum {q^l}."""
    if L < 1:
        raise ValueError("L must be >= 1")
    Y = weyl_matrices(ctx)["Y"]
    return ctx.q_pow(-L) * kron([Y] * L)


def sector_orbits(ctx: Context, L: int, l) -> tuple:
    """The q^l-eigenspace of D as a table (orbit, amp) over the N^L states.

    D shifts every site index by one with a phase, so its eigenvectors are
    supported on the N-element orbits of the diagonal shift, one per orbit
    per eigenvalue.  State s = rep + t*1 (rep: first digit 0, the states
    0 .. N^(L-1)-1) lies on orbit[s] = sum_{i>=1} rep_i N^(i-1), with the
    exact amplitude amp[s] = N^{-1/2} omega^e (no numerical eigensolve);
    an array of sectors l gives one row of amp per sector."""
    orbit, e = _orbit_exponents(ctx, L, l)
    return orbit, ctx.omega_pow(e) / math.sqrt(ctx.N)


@lru_cache(maxsize=4)      # L = 1-3 at one N
def _digits(N: int, L: int) -> np.ndarray:
    """The (L, N^L) digits of the basis states, digit 0 leading; read-only."""
    return read_only(np.indices((N,) * L).reshape(L, -1))[0]


def _orbit_exponents(ctx: Context, L: int, l) -> tuple:
    """(orbit, e): `sector_orbits` with amp = N^{-1/2} omega^e, 0 at t = 0."""
    N, M = ctx.N, ctx.M
    digits = _digits(N, L)
    t = digits[0]
    rep = (digits[1:] - t) % N
    # D|rep + t*1> = q^{-L} omega^{R + L(t+1)} |rep + (t+1)*1> (R = |rep|), so
    # |rep + t*1> has amplitude N^{-1/2} prod_{s<t} q^{-l-L} omega^{R + L(s+1)}
    e = t * (rep.sum(axis=0) - (M + 1) * L) + L * t * (t + 1) // 2
    return N ** np.arange(L - 1) @ rep, e - np.multiply.outer(l, (M + 1) * t)


def read_only(*tables) -> tuple:
    """The arrays, marked read-only: a cached table is every caller's."""
    for t in tables:
        t.flags.writeable = False
    return tables


def weyl_monomial(N: int, a, b) -> tuple:
    """(image, phase) of the Weyl monomials (x)_j X^(a_j) Z^(b_j) on the N^L
    basis states, digit 0 leading: X^a Z^b |d> = omega^(b.d) |d + a>, so state
    s goes to image[..., s], the digits of s plus a mod N, with the exponent
    phase[..., s] = b.d mod N.  a and b hold exponents in Z_N, one (L,) pair
    or a stack (..., L); the tables have shape (..., N^L)."""
    a, b = np.asarray(a), np.asarray(b)
    L = a.shape[-1]
    digits = _digits(N, L)
    image = N ** np.arange(L - 1, -1, -1) @ ((digits + a[..., None]) % N)
    return image, b @ digits % N


def sector_monomial(ctx: Context, l, a, b) -> tuple:
    """(perm, phase): the Weyl monomial S = (x)_j X^(a_j) Z^(b_j) on the
    orbit basis of sector l, S B_c = omega^phase[c] B_perm[c], exact integers
    mod N from `weyl_monomial` and `_orbit_exponents`; K exponent pairs (K, L)
    give (K, N^(L-1)) tables, an array of sectors a phase table per l in front.
    ValueError unless S commutes with D: sum_j (a_j - b_j) = 0 mod N."""
    N, a, b = ctx.N, np.asarray(a), np.asarray(b)
    if ((a - b).sum(axis=-1) % N).any():
        raise ValueError(f"X^{a.tolist()} Z^{b.tolist()} does not commute "
                         "with D")
    orbit, e = _orbit_exponents(ctx, a.shape[-1], l)
    n = len(orbit) // N                                 # reps: first digit 0
    image, shift = (t[..., :n] for t in weyl_monomial(N, a, b))
    perm = np.empty_like(image)
    perm[..., orbit[:n]] = orbit[image]
    phase = np.empty(np.shape(l) + image.shape, dtype=int)
    phase[..., orbit[:n]] = (shift - e[..., image]) % N     # e = 0 at reps
    return perm, phase


def sector_basis(ctx: Context, L: int, l: int) -> np.ndarray:
    """Orthonormal basis of the q^l-eigenspace of D, one row per orbit: the
    dense scatter of `sector_orbits`, kept for `sector_project` and tests."""
    orbit, amp = sector_orbits(ctx, L, l)
    basis = np.zeros((ctx.N ** (L - 1), ctx.N ** L), dtype=complex)
    basis[orbit, np.arange(ctx.N ** L)] = amp
    return basis


def sector_project(op: Operator, basis) -> np.ndarray:
    """Matrix of op restricted to the span of orthonormal basis rows."""
    return basis.conj() @ op.mat @ basis.T


def relative_defect(lhs, rhs):
    """max|lhs - rhs| over the larger of 1, max|lhs| and max|rhs|, along the
    last axis: a float for vectors, one defect per row for a stack."""
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(lhs), axis=-1),
                                       np.max(np.abs(rhs), axis=-1)))
    out = np.max(np.abs(lhs - rhs), axis=-1) / scale
    return float(out) if out.ndim == 0 else out


def worst(residuals) -> float:
    """The largest of the residuals (0.0 for none), NaN if any is NaN: Python's
    max drops a NaN that does not come first."""
    return float(np.max(np.fromiter(residuals, float), initial=0.0))


def unit_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit-modulus complex numbers; the standard 'generic parameter' draw."""
    return np.exp(2j * np.pi * rng.random(n))


def with_generic_redraw(fn, rng: np.random.Generator):
    """Run fn(rng), retrying on GenericityError; five attempts in all."""
    last = None
    for _ in range(5):
        try:
            return fn(rng)
        except GenericityError as exc:
            last = exc
    raise last
