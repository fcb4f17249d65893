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
from dataclasses import dataclass, field

import numpy as np


class PoleError(ValueError):
    """A formula was evaluated at one of its explicit pole loci."""


class TagMismatchError(ValueError):
    """Operators built over different contexts were combined."""


class GenericityError(RuntimeError):
    """A genericity assumption failed (degenerate eigenvalues, fat null space).

    Callers are expected to redraw parameters and retry; see
    `with_generic_redraw`.
    """


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
    _roots: tuple = field(repr=False)

    def omega_pow(self, e: int) -> complex:
        return self._roots[int(e) % self.N]

    def q_pow(self, e: int) -> complex:
        return self._roots[((self.M + 1) * int(e)) % self.N]

    def q_half_pow(self, e: int) -> complex:
        """q**(e/2) as a lattice element: q_half**e."""
        return self._roots[((self.M + 1) * (self.M + 1) * int(e)) % self.N]

    def omega_pows(self, e) -> np.ndarray:
        """omega**e elementwise for an integer array e; q**e = omega**((M+1) e)."""
        return np.array(self._roots)[np.asarray(e) % self.N]


def make_context(N: int, P: int = 1) -> Context:
    """Build the arithmetic context for odd N >= 3 and gcd(P, N) = 1."""
    if N % 2 == 0 or N < 3:
        raise ValueError(f"N must be odd and >= 3, got {N}")
    if math.gcd(P, N) != 1:
        raise ValueError(f"P must be coprime to N, got gcd({P}, {N}) != 1")
    M = (N - 1) // 2
    roots = tuple(np.exp(2j * np.pi * P * j / N) for j in range(N))
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
    Z = np.diag(ctx.omega_pows(np.arange(N)))
    return {"X": Operator(X, N, 1), "Z": Operator(Z, N, 1),
            "Y": Operator(Z @ X, N, 1)}


def kron(ops) -> Operator:
    """Tensor product of operators in the given order."""
    ops = list(ops)
    if not ops:
        raise ValueError("kron of empty list")
    n = ops[0].n
    out = ops[0].mat
    sites = ops[0].sites
    for op in ops[1:]:
        if op.n != n:
            raise TagMismatchError(f"mixed N in kron: {n} vs {op.n}")
        out = np.kron(out, op.mat)
        sites += op.sites
    return Operator(out, n, sites)


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


def sector_basis(ctx: Context, L: int, l: int) -> np.ndarray:
    """Orthonormal basis of the q^l-eigenspace of D, one row per vector.

    D acts on basis states by shifting every site index by one with a
    phase, so its eigenvectors are supported on the N-element orbits of
    the diagonal shift; one eigenvector per orbit per eigenvalue.  The
    construction is exact (no numerical eigensolve): every amplitude is
    N^{-1/2} times a lattice phase omega^e.  Returns an N^(L-1) x N^L array.
    """
    N, M = ctx.N, ctx.M
    l = int(l) % N
    # orbit representatives r: first entry 0, entry i >= 1 is (r // N^(i-1)) % N
    r = np.arange(N ** (L - 1))[:, None]
    digits = np.hstack([0 * r, r // N ** np.arange(L - 1) % N])
    t = np.arange(N)
    idx = ((digits[:, None, :] + t[:, None]) % N) @ (N ** np.arange(L - 1, -1, -1))
    # D|rep + t*1> = q^{-L} omega^{R + L(t+1)} |rep + (t+1)*1> (R = |rep|), so
    # |rep + t*1> has amplitude N^{-1/2} prod_{s<t} q^{-l-L} omega^{R + L(s+1)}
    R = digits.sum(axis=1, keepdims=True)
    e = t * ((M + 1) * (-l - L) + R) + L * t * (t + 1) // 2
    basis = np.zeros((len(r), N ** L), dtype=complex)
    basis[r, idx] = ctx.omega_pows(e) / math.sqrt(N)
    return basis


def sector_project(op: Operator, basis) -> np.ndarray:
    """Matrix of op restricted to the span of orthonormal basis rows."""
    return basis.conj() @ op.mat @ basis.T


def relative_defect(lhs, rhs) -> float:
    """max|lhs - rhs| over the larger of 1, max|lhs| and max|rhs|."""
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


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
