import numpy as np
import pytest

from hofchain import (ChainParams, DegenerateChain, ComplexPolynomial,
                      GenericityError, PoleError, bethe_ansatz_residuals,
                      lambda_M_from_roots,
                      make_context, matrix_A, oracle_spectrum, rbeq_residual,
                      solve_L1, solve_L2, solve_L3)
from hofchain import bethe
from hofchain.bethe import (EIGEN_GAP, NULLSPACE_GAP, BetheSolution,
                            _coefficient_matrix, _lambda_poly,
                            cluster_eigenvalues, multiset_match)
from hofchain.weylcore import unit_draws


class TestComplexPolynomial:
    def test_trim_and_degree(self):
        p = ComplexPolynomial.from_array([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p(2.0) == 5.0

    def test_zero(self):
        p = ComplexPolynomial.from_array([0.0])
        assert p.degree == 0
        assert p(1.3) == 0


class TestRbeqResidual:
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_L1_closed_form(self, N, rng):
        ctx = make_context(N)
        c0 = unit_draws(rng, 1)[0]
        chain = DegenerateChain((c0,))
        for m in range(ctx.M + 1):
            sol = solve_L1(m, c0, ctx)
            assert rbeq_residual(sol.Q, sol.Lambda_poly, m, chain, ctx) < 1e-10

    def test_zero_polynomial(self, ctx3, rng):
        chain = DegenerateChain(tuple(unit_draws(rng, 3)))
        zero = ComplexPolynomial.from_array([0.0])
        lam = _lambda_poly(0.3 + 0.1j, 1, ctx3)
        assert rbeq_residual(zero, lam, 1, chain, ctx3) == 0.0

    def test_negative_control(self, ctx3, rng):
        chain = DegenerateChain(tuple(unit_draws(rng, 3)))
        Q = ComplexPolynomial.from_array(unit_draws(rng, 4))
        lam = _lambda_poly(unit_draws(rng, 1)[0], 1, ctx3)
        assert rbeq_residual(Q, lam, 1, chain, ctx3) > 1e-3


class TestCoefficientMatrix:
    @pytest.mark.parametrize("N", [5, 7])
    def test_L4_lambda_with_every_coefficient(self, N, rng):
        # G Q lists the coefficients of Lambda Q - q^{-m} Delta_- Q(x/q)
        # - q^m Delta_+ Q(qx), here for a degree-4 Lambda at L = 4
        ctx = make_context(N)
        chain = DegenerateChain(tuple(unit_draws(rng, 4)))
        Lam = ComplexPolynomial.from_array(unit_draws(rng, 5))
        q, m, deg = ctx.q, 1, 6
        Q = unit_draws(rng, deg + 1)
        dm = dp = np.array([1.0 + 0.0j])
        for cj in chain.c:
            dm = np.convolve(dm, [1.0, -cj / q])
            dp = np.convolve(dp, [1.0, cj])
        k = np.arange(deg + 1)
        ref = (np.convolve(Lam.array(), Q)
               - q**-m * np.convolve(dm, Q * q**-k)
               - q**m * np.convolve(dp, Q * q**k))
        G = _coefficient_matrix(Lam, m, chain, deg, ctx)
        assert G.shape == (deg + 5, deg + 1)
        assert np.max(np.abs(G @ Q - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_row_count_follows_lambda(self, ctx5, rng):
        # a constant Lambda at L = 3 keeps the L + 1 shift rows
        chain = DegenerateChain(tuple(unit_draws(rng, 3)))
        G = _coefficient_matrix(_lambda_poly(0.0, 1, ctx5), 1, chain, 4, ctx5)
        assert G.shape == (4 + 3 + 1, 5)


class TestSolveL1:
    def test_top_sector_trivial(self, ctx5, rng):
        c0 = unit_draws(rng, 1)[0]
        sol = solve_L1(ctx5.M, c0, ctx5)
        assert sol.Q.degree == 0
        assert sol.Q.coeffs[0] == 1
        assert abs(sol.Lambda_poly(0.0)
                   - (ctx5.q_pow(ctx5.M) + ctx5.q_pow(-ctx5.M))) < 1e-14

    def test_n3_m0_explicit(self, ctx3, rng):
        c0 = unit_draws(rng, 1)[0]
        sol = solve_L1(0, c0, ctx3)
        assert sol.Q.degree == 1
        q = ctx3.q
        expect = (1 - 1 / q) / (2 - 1 / q - q) * c0
        assert abs(sol.Q.coeffs[1] - expect) < 1e-13

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_residuals_all_sectors(self, N, rng):
        ctx = make_context(N)
        c0 = unit_draws(rng, 1)[0]
        for m in range(ctx.M + 1):
            sol = solve_L1(m, c0, ctx)
            assert sol.Q.degree == ctx.M - m
            assert sol.rbeq_residual < 1e-10

    def test_bad_sector(self, ctx3):
        with pytest.raises(ValueError):
            solve_L1(5, 1.0, ctx3)


class TestSolveL2:
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_degree_and_residual(self, N, rng):
        ctx = make_context(N)
        c0, c1 = unit_draws(rng, 2)
        for m in range(ctx.M + 1):
            for mp in range(ctx.M + 1):
                sol = solve_L2(m, mp, c0, c1, ctx)
                assert sol.Q.degree == ctx.M - m + mp
                assert abs(sol.Q.coeffs[0] - 1) < 1e-12
                assert sol.rbeq_residual < 1e-9

    def test_mprime_zero_degree(self, ctx5, rng):
        c0, c1 = unit_draws(rng, 2)
        for m in range(ctx5.M + 1):
            sol = solve_L2(m, 0, c0, c1, ctx5)
            assert sol.Q.degree == ctx5.M - m

    @pytest.mark.parametrize("N", [3, 5])
    def test_eigenvalues_match_oracle(self, N, rng):
        # every sector +-2m oracle eigenvalue is a Lambda_{m,m'} value and
        # all m' values are hit, under the q^{-+m} sector scaling
        ctx = make_context(N)
        c0, c1 = unit_draws(rng, 2)
        chain = DegenerateChain((c0, c1)).site_params(ctx)
        lam_set = np.array([ctx.q_half_pow(1)
                            * (ctx.q_pow(mp - 1) + ctx.q_pow(-mp - 2)) * c0 * c1
                            for mp in range(ctx.M + 1)])
        for m in range(ctx.M + 1):
            for l, scale in (((2 * m) % N, ctx.q_pow(-m)),
                             ((-2 * m) % N, ctx.q_pow(m))):
                spec = scale * oracle_spectrum(chain, l, ctx)
                dist = np.abs(spec[:, None] - lam_set[None, :])
                assert dist.min(axis=1).max() < 1e-8
                assert set(dist.argmin(axis=1)) == set(range(ctx.M + 1))


class TestMatrixA:
    def test_n3_band_layout(self, ctx3, rng):
        c = unit_draws(rng, 3)
        A = matrix_A(1, c, ctx3)
        s1 = c.sum()
        s2 = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
        s3 = c.prod()
        q, qh = ctx3.q_pow, ctx3.q_half_pow
        m = 1

        def w_(k):
            return q(k + 1) * qh(1) + q(-k - 1) * qh(-1) - q(m) - q(-m)

        def v_(k):
            return (q(k) * qh(1) - q(-k - 1) * qh(-1)) * s1

        def d_(k):
            return (q(k) * qh(-1) + q(-k - 1) * qh(-1)) * s2

        def u_(k):
            return (q(k - 1) * qh(-1) - q(-k - 1) * qh(-1)) * s3

        expect = np.array([
            [d_(2), u_(2), 0],
            [v_(1), d_(1), u_(1)],
            [w_(0), v_(0), d_(0)]])
        assert np.max(np.abs(A - expect)) < 1e-14

    @pytest.mark.parametrize("N", [5, 7, 11, 15])
    def test_entries_match_paper(self, N, rng):
        # w'_k, v'_k, delta'_k, u'_k on row r = N - 1 - k, each q power
        # read as one half-power lookup: q^{n/2} = q_half_pow(n)
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        s1 = c[0] + c[1] + c[2]
        s2 = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
        s3 = c[0] * c[1] * c[2]
        qh = ctx.q_half_pow
        for m in range(ctx.M + 1):
            A = matrix_A(m, c, ctx)
            expect = np.zeros((N, N), dtype=complex)
            for r in range(N):
                k = N - 1 - r
                expect[r, r] = (qh(2 * k - 1) + qh(-2 * k - 3)) * s2
                if r + 1 < N:
                    expect[r, r + 1] = (qh(2 * k - 3) - qh(-2 * k - 3)) * s3
                if r >= 1:
                    expect[r, r - 1] = (qh(2 * k + 1) - qh(-2 * k - 3)) * s1
                if r >= 2:
                    expect[r, r - 2] = (qh(2 * k + 3) + qh(-2 * k - 3)
                                        - qh(2 * m) - qh(-2 * m))
            assert np.max(np.abs(A - expect)) < 1e-14

    def test_zero_parameter_refused(self, ctx5):
        with pytest.raises(ValueError, match="nonzero"):
            matrix_A(0, (1.0, 0.0, 0.5), ctx5)

    def test_band_structure(self, ctx7, rng):
        c = unit_draws(rng, 3)
        A = matrix_A(2, c, ctx7)
        N = 7
        for i in range(N):
            for j in range(N):
                if j > i + 1 or j < i - 2:
                    assert A[i, j] == 0

    def test_trace(self, ctx5, rng):
        c = unit_draws(rng, 3)
        A = matrix_A(0, c, ctx5)
        s2 = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
        diag_sum = sum((ctx5.q_pow(k) * ctx5.q_half_pow(-1)
                        + ctx5.q_pow(-k - 1) * ctx5.q_half_pow(-1)) * s2
                       for k in range(5))
        assert abs(np.trace(A) - diag_sum) < 1e-13

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_w_entry_root_coincidences(self, N, rng):
        # w'_k = 0 exactly when 2k + 3 = +-2m (mod N)
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        for m in range(ctx.M + 1):
            A = matrix_A(m, c, ctx)
            for r in range(2, N):
                k = N - 1 - r
                w_k = A[r, r - 2]
                vanish = ((2 * k + 3 - 2 * m) % N == 0
                          or (2 * k + 3 + 2 * m) % N == 0)
                if vanish:
                    assert abs(w_k) < 1e-13
                else:
                    assert abs(w_k) > 1e-8


class TestSolveL3:
    @pytest.mark.parametrize("N", [3, 5])
    def test_solution_count_and_shape(self, N, rng):
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        for m in range(ctx.M + 1):
            sols = solve_L3(m, c, ctx)
            assert len(sols) == N
            for sol in sols:
                assert sol.Q.degree == 3 * ctx.M - m
                assert abs(sol.Q.coeffs[0] - 1) < 1e-12
                assert sol.rbeq_residual < 1e-8
                assert abs(sol.Lambda_poly(0.0)
                           - (ctx.q_pow(m) + ctx.q_pow(-m))) < 1e-12

    def test_near_degenerate_eigenvalues_refused(self, ctx5, rng, monkeypatch):
        eigvals = np.linalg.eigvals

        def close_pair(a):
            lams = eigvals(a)
            lams[1] = lams[0] + 0.5 * EIGEN_GAP
            return lams

        monkeypatch.setattr(np.linalg, "eigvals", close_pair)
        with pytest.raises(GenericityError, match="near-degenerate"):
            solve_L3(1, unit_draws(rng, 3), ctx5)

    def test_n3_m1_degree_two(self, ctx3, rng):
        sols = solve_L3(1, unit_draws(rng, 3), ctx3)
        assert len(sols) == 3
        assert all(s.Q.degree == 2 for s in sols)

    @pytest.mark.parametrize("N", [3, 5])
    def test_eigenvalues_match_oracle_with_multiplicity(self, N, rng):
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        chain = DegenerateChain(tuple(c)).site_params(ctx)
        for m in range(ctx.M + 1):
            lams = [sol.lam for sol in solve_L3(m, c, ctx)]
            for l, scale in (((2 * m) % N, ctx.q_pow(-m)),
                             ((-2 * m) % N, ctx.q_pow(m))):
                spec = scale * oracle_spectrum(chain, l, ctx)
                clusters = cluster_eigenvalues(spec)
                assert all(k == N for _, k in clusters)
                assert multiset_match(lams, [v for v, _ in clusters]) < 1e-8


def rbeq_formula(Q, Lam, m, chain, ctx):
    """Reference rbeq residual of one solution, written out with np.convolve
    and np.polyval and independent of bethe's stacked residual."""
    pm, pp = bethe.shift_polys(chain, ctx)
    lhs_coeffs = np.convolve(Lam.array(), Q.array())
    npts = len(lhs_coeffs) + chain.L + 2
    xs = 0.9 * np.exp(2j * np.pi * np.arange(npts) / npts)
    scale = max(1.0, float(np.max(np.abs(lhs_coeffs))))
    rhs = ctx.q_pow(-m) * np.polyval(pm[::-1], xs) * Q(xs * ctx.q_pow(-1)) \
        + ctx.q_pow(m) * np.polyval(pp[::-1], xs) * Q(xs * ctx.q_pow(1))
    return float(np.max(np.abs(Lam(xs) * Q(xs) - rhs))) / scale


def per_solution_L3(m, c, ctx):
    """Reference: solve_L3 one eigenvalue at a time, each with its own
    coefficient matrix, SVD and np.roots, checks in the same order (the
    degree check reads the top coefficient before trimming), and the rbeq
    residual from the written-out formula."""
    chain = DegenerateChain(tuple(c))
    lams = np.linalg.eigvals(matrix_A(m, c, ctx))
    lams = lams[np.lexsort((lams.imag, lams.real))]
    if np.triu(np.abs(lams[:, None] - lams) < EIGEN_GAP, 1).any():
        raise GenericityError("matrix_A has near-degenerate eigenvalues")
    sols = []
    for lam in lams:
        Lam = _lambda_poly(lam, m, ctx)
        _, s, vt = np.linalg.svd(_coefficient_matrix(Lam, m, chain,
                                                     3 * ctx.M - m, ctx))
        if s[-1] > 1e-8 * max(s[0], 1.0):
            raise GenericityError(f"no polynomial solution at Lambda={Lam.array()}")
        if s[-2] < NULLSPACE_GAP * s[0]:
            raise GenericityError("null space not one-dimensional at "
                                  f"Lambda={Lam.array()}")
        v = vt[-1].conj()
        if abs(v[0]) < 1e-10:
            raise GenericityError("Q(0) vanishes; cannot normalize")
        v = v / v[0]
        v[0] = 1.0
        if abs(v[-1]) < 1e-8:
            raise GenericityError("leading coefficient vanished; degree defect")
        Q = ComplexPolynomial.from_array(v)
        sol = BetheSolution(m=m, lam=lam, Lambda_poly=Lam, Q=Q,
                            roots=tuple(np.roots(Q.array())),
                            rbeq_residual=rbeq_formula(Q, Lam, m, chain, ctx))
        sols.append((sol, bethe_ansatz_residuals(sol, c, ctx)))
    return sols


def outcome(solve, *args):
    try:
        return solve(*args)
    except (GenericityError, PoleError) as e:
        return type(e), str(e)


class TestStackedSolve:
    @pytest.mark.parametrize("N", [3, 5, 7, 9, 11, 15])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_per_solution(self, N, seed):
        ctx = make_context(N)
        c = unit_draws(np.random.default_rng(seed), 3)
        for m in range(ctx.M + 1):
            sols = solve_L3(m, c, ctx)
            ref = per_solution_L3(m, c, ctx)
            assert len(sols) == len(ref) == N
            for sol, (r, ansatz) in zip(sols, ref):
                assert sol.lam == r.lam
                assert sol.Lambda_poly == r.Lambda_poly
                assert sol.Q == r.Q
                assert sol.roots == r.roots
                assert sol.rbeq_residual == r.rbeq_residual
                assert list(sol.ansatz_residuals) == ansatz

    @pytest.mark.parametrize("N, seed", [(21, 26), (25, 2), (31, 5)])
    def test_failing_sectors_raise_as_per_solution(self, N, seed):
        # the stack raises the error that the first failing lambda raises
        ctx = make_context(N)
        c = unit_draws(np.random.default_rng(seed), 3)
        raised = 0
        for m in range(ctx.M + 1):
            got = outcome(solve_L3, m, c, ctx)
            ref = outcome(per_solution_L3, m, c, ctx)
            if isinstance(ref, tuple):
                raised += 1
                assert got == ref
            else:
                assert [s.Q for s in got] == [s.Q for s, _ in ref]
        assert raised > 0

    def test_one_svd_one_shift_build_two_eigensolves(self, ctx5, rng,
                                                     monkeypatch):
        # one sector is one stack: no per-eigenvalue loop of LAPACK calls,
        # and no Lambda or Q polynomial built per solution on the way (the
        # records wrap the stacked rows), so the counts do not grow with N
        calls = dict.fromkeys(["svd", "eigvals", "shift_polys", "_lambda_poly",
                               "from_array"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvals",
                            counted("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(bethe, "shift_polys",
                            counted("shift_polys", bethe.shift_polys))
        monkeypatch.setattr(bethe, "_lambda_poly",
                            counted("_lambda_poly", bethe._lambda_poly))
        monkeypatch.setattr(ComplexPolynomial, "from_array", classmethod(
            counted("from_array", ComplexPolynomial.from_array.__func__)))
        for ctx in (ctx5, make_context(9)):
            calls.update(dict.fromkeys(calls, 0))
            assert len(solve_L3(1, unit_draws(rng, 3), ctx)) == ctx.N
            assert calls == {"svd": 1, "eigvals": 2, "shift_polys": 1,
                             "_lambda_poly": 1, "from_array": 1}

    def test_zero_top_coefficient_is_a_degree_defect(self, ctx5, rng,
                                                     monkeypatch):
        # a null vector whose x^deg coefficient is exactly zero must not
        # pass as a solution of lower degree
        svd = np.linalg.svd

        def zero_top(a, **kwargs):
            u, s, vt = svd(a, **kwargs)
            vt[..., -1, -1] = 0.0
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", zero_top)
        with pytest.raises(GenericityError, match="leading coefficient"):
            solve_L3(1, unit_draws(rng, 3), ctx5)
        with pytest.raises(GenericityError, match="leading coefficient"):
            solve_L2(1, 1, *unit_draws(rng, 2), ctx5)

    def test_rbeq_residual_matches_polyval_formula(self, ctx5, rng):
        # the row-wise residual makes the same floating-point operations as
        # np.convolve and np.polyval on one solution, up to deg 21 = 3M at
        # N = 15, and a stack of rows gives each row's single-row value
        chain = DegenerateChain(tuple(unit_draws(rng, 3)))
        shifts = bethe.shift_polys(chain, ctx5)
        for deg in (0, 1, 2, 6, 21):
            Q = ComplexPolynomial.from_array(unit_draws(rng, deg + 1))
            Lam = _lambda_poly(unit_draws(rng, 1)[0], 1, ctx5)
            expect = rbeq_formula(Q, Lam, 1, chain, ctx5)
            assert rbeq_residual(Q, Lam, 1, chain, ctx5) == expect
            Qs = [ComplexPolynomial.from_array(unit_draws(rng, deg + 1))
                  for _ in range(4)]
            Lams = [_lambda_poly(lam, 1, ctx5) for lam in unit_draws(rng, 4)]
            stacked = bethe._rbeq_residuals(
                np.array([L.array() for L in Lams]),
                np.array([q.array() for q in Qs]), 1, chain, ctx5, shifts)
            assert stacked.tolist() == [
                rbeq_residual(q, L, 1, chain, ctx5) for q, L in zip(Qs, Lams)]
            assert stacked.tolist() == [
                rbeq_formula(q, L, 1, chain, ctx5) for q, L in zip(Qs, Lams)]


class TestBetheAnsatz:
    @pytest.mark.parametrize("N", [3, 5])
    def test_forward_relation(self, N, rng):
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        for m in range(ctx.M + 1):
            for sol in solve_L3(m, c, ctx):
                res = bethe_ansatz_residuals(sol, c, ctx)
                assert len(res) == 3 * ctx.M - m
                assert max(res) < 1e-6

    def test_sector_M_root_count(self, ctx3, rng):
        c = unit_draws(rng, 3)
        sols = solve_L3(ctx3.M, c, ctx3)
        for sol in sols:
            assert len(sol.roots) == 2  # 3M - M = 2M = 2 at N = 3

    def test_negative_control(self, ctx3, rng):
        from dataclasses import replace
        c = unit_draws(rng, 3)
        sol = solve_L3(1, c, ctx3)[0]
        bad_roots = list(sol.roots)
        bad_roots[0] += 1e-2
        bad = replace(sol, roots=tuple(bad_roots))
        res = bethe_ansatz_residuals(bad, c, ctx3)
        assert max(res) > 1e-3

    def test_pole_checks(self, ctx3, rng):
        from dataclasses import replace
        from hofchain import PoleError
        c = unit_draws(rng, 3)
        sol = solve_L3(1, c, ctx3)[0]
        q = ctx3.q_pow(1)
        z = list(sol.roots)
        on_c = replace(sol, roots=(c[0] / q, *z[1:]))            # q z_0 = c_0
        with pytest.raises(PoleError, match="q z_l = c_j"):
            bethe_ansatz_residuals(on_c, c, ctx3)
        on_root = replace(sol, roots=(q * z[1], *z[1:]))         # z_0 = q z_1
        with pytest.raises(PoleError, match="z_l = q z_n"):
            bethe_ansatz_residuals(on_root, c, ctx3)

    def test_matches_scalar_products(self, ctx5, rng):
        # reference: the relation evaluated root by root in Python complex
        # arithmetic, at perturbed roots so that the residuals are O(1)
        from dataclasses import replace
        c = unit_draws(rng, 3)
        sol = solve_L3(1, c, ctx5)[0]
        z = [r + 0.05 * s for r, s in zip(sol.roots, unit_draws(rng, len(sol.roots)))]
        q = ctx5.q_pow(1)
        pref = ctx5.q_pow(3 + 2 * sol.m + len(z))
        ref = []
        for i, zl in enumerate(z):
            num = rhs = 1.0
            for cj in c:
                num *= (zl + cj) / (q * zl - cj)
            for n, zn in enumerate(z):
                if n != i:
                    rhs *= (q * zl - zn) / (zl - q * zn)
            ref.append(abs(pref * num - rhs))
        res = bethe_ansatz_residuals(replace(sol, roots=tuple(z)), c, ctx5)
        assert min(ref) > 1e-3
        assert np.allclose(res, ref, rtol=1e-12, atol=0)

    def test_L1_L2_general_relation(self, ctx5, rng):
        # the same substitution argument applies at L = 1, 2
        c0, c1 = unit_draws(rng, 2)
        for m in range(ctx5.M):
            assert max(solve_L1(m, c0, ctx5).ansatz_residuals) < 1e-8
            sol = solve_L2(m, 2, c0, c1, ctx5)
            assert max(sol.ansatz_residuals) < 1e-8


class TestLambdaM:
    def test_matches_eigensolve(self, ctx3, rng):
        c = unit_draws(rng, 3)
        sols = solve_L3(ctx3.M, c, ctx3)
        assert len(sols) == 3
        for sol in sols:
            lam = lambda_M_from_roots(sol.roots, c, ctx3)
            assert abs(lam - sol.lam) < 1e-8

    @pytest.mark.parametrize("N", [5, 7])
    def test_matches_eigensolve_larger(self, N, rng):
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        for sol in solve_L3(ctx.M, c, ctx):
            assert abs(lambda_M_from_roots(sol.roots, c, ctx) - sol.lam) < 1e-8

    def test_all_roots_zero(self, ctx5, rng):
        c = unit_draws(rng, 3)
        s2 = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
        lam = lambda_M_from_roots([0.0] * (2 * ctx5.M), c, ctx5)
        expect = (ctx5.q_half_pow(-1) + ctx5.q_pow(-1) * ctx5.q_half_pow(-1)) * s2
        assert abs(lam - expect) < 1e-13

    def test_wrong_arity(self, ctx3, rng):
        with pytest.raises(ValueError):
            lambda_M_from_roots([0.1], unit_draws(rng, 3), ctx3)


class TestOracle:
    def test_degeneracy_n3(self, ctx3, rng):
        chain = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx3)
        spec = oracle_spectrum(chain, 2, ctx3)
        assert len(spec) == 9
        clusters = cluster_eigenvalues(spec)
        assert sorted(k for _, k in clusters) == [3, 3, 3]

    def test_clusters_with_equal_real_parts(self):
        # two clusters whose real parts agree to roundoff interleave in
        # (re, im) order; each value joins its own cluster, not the last one
        vals = [1 + 1j + 1e-13, 1 + 1j - 1e-13, 1 + 1j,
                1 - 1j + 2e-13, 1 - 1j - 2e-13, 1 - 1j]
        clusters = cluster_eigenvalues(vals)
        assert [k for _, k in clusters] == [3, 3]
        assert multiset_match([mu for mu, _ in clusters], [1 - 1j, 1 + 1j]) < 1e-15

    def test_sector_union_is_full_spectrum(self, ctx3, rng):
        from conftest import draw_chain
        chain = draw_chain(rng, 3)
        from hofchain import transfer_pencil
        T2 = transfer_pencil(chain, ctx3).coeffs[1]
        full = np.linalg.eigvals(T2.mat)
        union = np.concatenate([oracle_spectrum(chain, l, ctx3)
                                for l in range(3)])
        assert multiset_match(full, union) < 1e-8

    def test_conjugation_symmetry_real_parameters(self):
        # real c_j: conjugating the sector-l spectrum lands on the same
        # sector at the conjugate flux N - P
        chain = DegenerateChain((0.9, 1.2, 0.7))
        for N in (3, 5):
            ctx = make_context(N, 1)
            ctx_conj = make_context(N, N - 1)
            for l in range(N):
                a = np.conj(oracle_spectrum(chain.site_params(ctx), l, ctx))
                b = oracle_spectrum(chain.site_params(ctx_conj), l, ctx_conj)
                assert multiset_match(a, b) < 1e-9

    def test_L1_zero_coefficient(self, ctx3, rng):
        chain = ChainParams((DegenerateChain(tuple(unit_draws(rng, 1)))
                             .site_params(ctx3).sites[0],))
        spec = oracle_spectrum(chain, 0, ctx3)
        assert len(spec) == 1
        assert abs(spec[0]) < 1e-12


@pytest.mark.parametrize("side", ["a", "b"])
def test_multiset_match_nan_is_nan(side):
    # a NaN eigenvalue, matched first or last, must not pass as a match
    a, b = [1 + 1j, np.nan, 2.0], [2.0, 1 + 1j, 3.0]
    if side == "b":
        a, b = b, a
    assert np.isnan(multiset_match(a, b))
    assert multiset_match([1.0, 2.0], [2.0, 1.0]) == 0.0
