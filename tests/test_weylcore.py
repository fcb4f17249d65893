import numpy as np
import pytest

from hofchain import (GenericityError, TagMismatchError, global_shift_D,
                      kron, make_context, pochhammer, sector_basis,
                      weyl_matrices)
from hofchain.weylcore import (identity_op, relative_defect,
                               with_generic_redraw)


class TestContext:
    def test_n3_p1(self):
        ctx = make_context(3, 1)
        assert ctx.M == 1
        assert abs(ctx.omega - np.exp(2j * np.pi / 3)) < 1e-15
        assert abs(ctx.q - ctx.omega**2) < 1e-15

    def test_n5_p1_half_powers(self):
        ctx = make_context(5, 1)
        assert abs(ctx.q - ctx.omega**3) < 1e-14
        assert abs(ctx.q_half - ctx.q**3) < 1e-14
        assert abs(ctx.q_half**2 - ctx.q) < 1e-14

    def test_n3_p2_still_primitive(self):
        ctx = make_context(3, 2)
        assert abs(ctx.omega - np.exp(4j * np.pi / 3)) < 1e-15
        assert abs(ctx.omega**3 - 1) < 1e-14
        assert abs(ctx.omega - 1) > 0.5
        assert abs(ctx.omega**2 - 1) > 0.5

    def test_derived_invariants(self):
        for N, P in ((3, 1), (5, 2), (7, 3), (9, 2)):
            ctx = make_context(N, P)
            assert N == 2 * ctx.M + 1
            assert abs(ctx.q**2 - ctx.omega) < 1e-13
            assert abs(ctx.q**N - 1) < 1e-13
            for k in range(1, N):
                assert abs(ctx.omega_pow(k) - 1) > 1e-3

    @pytest.mark.parametrize("N,P", [(4, 1), (2, 1), (1, 1), (9, 3), (15, 5)])
    def test_invalid_context(self, N, P):
        with pytest.raises(ValueError):
            make_context(N, P)

    @pytest.mark.parametrize("N,P", [(3, 1), (5, 2), (7, 3), (9, 4)])
    def test_omega_pows_match_scalar_lookups(self, N, P):
        ctx = make_context(N, P)
        e = np.arange(-2 * N, 2 * N + 1)
        h = ctx.M + 1       # q = omega^h, q_half = q^h
        assert list(ctx.omega_pows(e)) == [ctx.omega_pow(k) for k in e]
        assert list(ctx.omega_pows(h * e)) == [ctx.q_pow(k) for k in e]
        assert list(ctx.omega_pows(h * h * e)) == \
            [ctx.q_half_pow(k) for k in e]
        assert ctx.omega_pows(e[:6].reshape(2, 3)).shape == (2, 3)


class TestWeylMatrices:
    def test_z_diag_n3(self, ctx3):
        Z = weyl_matrices(ctx3)["Z"].mat
        w = ctx3.omega
        assert np.allclose(Z, np.diag([1, w, w**2]), atol=1e-14)

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_weyl_relation(self, N):
        ctx = make_context(N)
        m = weyl_matrices(ctx)
        X, Z, Y = m["X"].mat, m["Z"].mat, m["Y"].mat
        assert np.max(np.abs(Z @ X - ctx.omega * X @ Z)) < 1e-12
        assert np.max(np.abs(Y - Z @ X)) < 1e-15
        assert np.max(np.abs(np.linalg.matrix_power(X, N) - np.eye(N))) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(Z, N) - np.eye(N))) < 1e-12


class TestKron:
    def test_identities(self, ctx3):
        I = identity_op(ctx3)
        II = kron([I, I])
        assert II.dim == 9
        assert np.allclose(II.mat, np.eye(9))

    def test_basis_action(self, ctx3):
        m = weyl_matrices(ctx3)
        ZX = kron([m["Z"], m["X"]]).mat
        N = 3
        for j in range(N):
            for k in range(N):
                e = np.zeros(9)
                e[j * N + k] = 1.0
                out = ZX @ e
                expect = np.zeros(9, dtype=complex)
                expect[j * N + (k + 1) % N] = ctx3.omega_pow(j)
                assert np.allclose(out, expect, atol=1e-14)

    def test_disjoint_slots_commute(self, ctx3):
        m = weyl_matrices(ctx3)
        A = kron([m["X"], m["Z"]]).mat
        B = kron([m["Z"], m["X"]]).mat
        assert np.max(np.abs(A @ B - B @ A)) < 1e-13

    def test_associative(self, ctx3):
        m = weyl_matrices(ctx3)
        lhs = kron([kron([m["X"], m["Z"]]), m["Y"]])
        rhs = kron([m["X"], m["Z"], m["Y"]])
        assert np.max(np.abs(lhs.mat - rhs.mat)) < 1e-14

    def test_tag_mismatch(self, ctx3, ctx5):
        with pytest.raises(TagMismatchError):
            kron([weyl_matrices(ctx3)["X"], weyl_matrices(ctx5)["X"]])


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(0.3 + 0.1j, 2.0, 0) == 1
        assert abs(pochhammer(0.3, 2.0, 1) - 0.7) < 1e-15

    def test_example(self):
        # (2; 3)_2 = (1-2)(1-6) = 5
        assert abs(pochhammer(2, 3, 2) - 5) < 1e-14

    def test_recursion(self, rng):
        for _ in range(20):
            a, rho = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            n = int(rng.integers(0, 8))
            lhs = pochhammer(a, rho, n + 1)
            rhs = pochhammer(a, rho, n) * (1 - a * rho**n)
            assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))

    def test_negative_order(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, 1.0, -1)

    def test_broadcast_matches_scalar_calls(self, rng):
        a = rng.standard_normal((3, 2, 1)) + 1j * rng.standard_normal((3, 2, 1))
        n = np.array([0, 1, 4, 7])
        rho = np.exp(0.7j)
        got = pochhammer(a, rho, n)
        assert got.shape == (3, 2, 4)
        for idx in np.ndindex(got.shape):
            want = pochhammer(complex(a[idx[:2]][0]), rho, int(n[idx[2]]))
            assert isinstance(want, complex)
            assert abs(got[idx] - want) <= 1e-15 * max(1.0, abs(want))
        # the loop the broadcast replaces
        loop = 1.0 + 0.0j
        for i in range(7):
            loop *= 1 - complex(a[2, 1, 0]) * rho**i
        assert abs(got[2, 1, 3] - loop) < 1e-13 * abs(loop)

    def test_negative_order_in_array(self):
        with pytest.raises(ValueError):
            pochhammer(np.ones(3), 1.0, np.array([2, -1, 0]))


class TestGlobalShift:
    @pytest.mark.parametrize("N,L", [(3, 1), (3, 2), (3, 3), (5, 2)])
    def test_unitary_and_power(self, N, L):
        ctx = make_context(N)
        D = global_shift_D(ctx, L).mat
        assert np.max(np.abs(D @ D.conj().T - np.eye(N**L))) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(D, N) - np.eye(N**L))) < 1e-11

    def test_spectrum_multiplicities(self):
        ctx = make_context(3)
        D = global_shift_D(ctx, 3).mat
        evals = np.linalg.eigvals(D)
        for l in range(3):
            hits = np.sum(np.abs(evals - ctx.q_pow(l)) < 1e-8)
            assert hits == 9

    def test_l1_power_identity(self, ctx3):
        D = global_shift_D(ctx3, 1).mat
        assert np.max(np.abs(np.linalg.matrix_power(D, 3) - np.eye(3))) < 1e-13


class TestSectorBasis:
    @pytest.mark.parametrize("N,L", [(3, 3), (3, 2), (5, 2), (3, 1)])
    def test_eigen_property(self, N, L):
        ctx = make_context(N)
        D = global_shift_D(ctx, L).mat
        for l in range(N):
            basis = sector_basis(ctx, L, l)
            assert len(basis) == N ** (L - 1)
            for v in basis:
                assert np.max(np.abs(D @ v - ctx.q_pow(l) * v)) < 1e-12

    def test_orthonormal_and_spanning(self, ctx3):
        vecs = []
        for l in range(3):
            vecs.extend(sector_basis(ctx3, 3, l))
        B = np.column_stack(vecs)
        assert B.shape == (27, 27)
        assert np.max(np.abs(B.conj().T @ B - np.eye(27))) < 1e-12

    @pytest.mark.parametrize("N,L,P", [(3, 3, 1), (5, 2, 2), (5, 3, 1), (7, 1, 3)])
    def test_matches_orbit_walk(self, N, L, P):
        # reference: walk each orbit of the diagonal shift, multiplying the
        # amplitude by q^{-l} times the phase D picks up at every step
        ctx = make_context(N, P)
        for l in range(N):
            ref = []
            for rep in range(N ** (L - 1)):
                digits = [0] + [rep // N ** i % N for i in range(L - 1)]
                v = np.zeros(N ** L, dtype=complex)
                amp = 1 / np.sqrt(N)
                for t in range(N):
                    idx = 0
                    for d in digits:
                        idx = idx * N + (d + t) % N
                    v[idx] = amp
                    amp *= ctx.q_pow(-l) * ctx.q_pow(-L) \
                        * ctx.omega_pow(sum(digits) + L * (t + 1))
                ref.append(v)
            assert np.max(np.abs(sector_basis(ctx, L, l) - np.array(ref))) < 1e-13


def test_with_generic_redraw_retries(rng):
    calls = []

    def flaky(r):
        calls.append(1)
        if len(calls) < 3:
            raise GenericityError("degenerate")
        return "ok"

    assert with_generic_redraw(flaky, rng) == "ok"
    assert len(calls) == 3
    with pytest.raises(GenericityError):
        with_generic_redraw(lambda r: (_ for _ in ()).throw(GenericityError("x")), rng)


class TestRelativeDefect:
    def test_scale_is_the_larger_side_or_one(self):
        assert relative_defect(np.array([0.1]), np.array([0.3])) == \
            pytest.approx(0.2)
        assert relative_defect(np.array([4.0, 1j]), np.array([3.0, 0])) == 0.25
        assert relative_defect(np.array([1.0]), np.array([-8.0])) == 9 / 8
