import numpy as np
import pytest

from hofchain import (DegenerateChain, PoleError, baxter_vector, delta_pm,
                      make_context, pochhammer, sector_vectors,
                      t_action_residual, theorem1_residual)
from hofchain.baxter import (_regular_rotation, draw_regular_x, f_even, f_odd,
                             plus_pairing_coeffs, shift_polys, u_weight)
from hofchain.transfer import transfer_pencil
from hofchain.weylcore import sector_basis, unit_draws

from oracle import f_op, gauge_chain_L


def degenerate_chain(rng, L=3):
    return DegenerateChain(tuple(unit_draws(rng, L)))


class TestDelta:
    def test_x_zero(self, ctx3, rng):
        chain = degenerate_chain(rng)
        assert delta_pm(0.0, 1, -1, chain, ctx3) == 1
        assert delta_pm(0.0, 1, +1, chain, ctx3) == 1

    def test_L1_formula(self, ctx3, rng):
        c0 = unit_draws(rng, 1)[0]
        chain = DegenerateChain((c0,))
        x = 0.4 + 0.3j
        assert abs(delta_pm(x, 0, -1, chain, ctx3)
                   - (1 - x * c0)) < 1e-14

    def test_pole(self, ctx3):
        chain = DegenerateChain((1.0,))
        # x = q^l / c_0 with l = 0
        with pytest.raises(PoleError):
            delta_pm(1.0, 0, +1, chain, ctx3)

    def test_sign_refused(self, ctx3):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            delta_pm(0.5, 0, 0, DegenerateChain((1.0,)), ctx3)


class TestShiftPolys:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_values_match_products(self, L, ctx5, rng):
        # Delta_-(x, -1) = prod(1 - x c_j q^{-1}), Delta_+(x, 0) = prod(1 + x c_j)
        chain = degenerate_chain(rng, L)
        pm, pp = shift_polys(chain, ctx5)
        assert len(pm) == len(pp) == L + 1
        for x in 1.5 * unit_draws(rng, 8) * rng.random(8):
            dm = dp = 1.0 + 0.0j
            for cj in chain.c:
                dm *= 1 - x * cj / ctx5.q
                dp *= 1 + x * cj
            assert abs(np.polyval(pm[::-1], x) - dm) <= 1e-14 * max(abs(dm), 1)
            assert abs(np.polyval(pp[::-1], x) - dp) <= 1e-14 * max(abs(dp), 1)

    def test_plus_coefficients_are_symmetric_functions(self, ctx5, rng):
        c = unit_draws(rng, 3)
        s1 = c[0] + c[1] + c[2]
        s2 = c[0] * c[1] + c[1] * c[2] + c[2] * c[0]
        s3 = c[0] * c[1] * c[2]
        _, pp = shift_polys(DegenerateChain(tuple(c)), ctx5)
        assert np.allclose(pp, [1, s1, s2, s3], rtol=1e-14, atol=0)

    def test_delta_pm_at_the_bethe_shifts(self, ctx7, rng):
        # the general-l two-term functions reduce to them at l = -1 and l = 0
        chain = degenerate_chain(rng, 3)
        pm, pp = shift_polys(chain, ctx7)
        x = 0.3 + 0.4j
        dm = delta_pm(x, ctx7.N - 1, -1, chain, ctx7)
        dp = delta_pm(x, 0, +1, chain, ctx7)
        assert abs(np.polyval(pm[::-1], x) - dm) < 1e-14
        assert abs(np.polyval(pp[::-1], x) - dp) < 1e-14


class TestBaxterVector:
    def test_zero_index_component(self, ctx3, rng):
        chain = degenerate_chain(rng)
        x = draw_regular_x(rng, chain, ctx3)
        v = baxter_vector(x, 1, chain, ctx3)
        assert abs(v[0] - 1.0) < 1e-14

    def test_x_zero_components(self, ctx3, rng):
        chain = degenerate_chain(rng)
        v = baxter_vector(0.0, 2, chain, ctx3)
        N = 3
        for k0 in range(N):
            for k1 in range(N):
                for k2 in range(N):
                    idx = (k0 * N + k1) * N + k2
                    expect = ctx3.q_pow(k0 * k0 + k1 * k1 + k2 * k2)
                    assert abs(v[idx] - expect) < 1e-13

    def test_matches_null_space_of_F(self, ctx3, rng):
        # oracle: SVD null vector of F(x, q^l, q^l) for the degenerate site
        from hofchain import SiteParams
        c0 = unit_draws(rng, 1)[0]
        chain = DegenerateChain((c0,))
        x = draw_regular_x(rng, chain, ctx3)
        for l in range(3):
            v = baxter_vector(x, l, chain, ctx3)
            h = SiteParams(ctx3.q_pow(-1), ctx3.q_pow(-1) * c0, c0, 1.0)
            F = f_op(h, x, ctx3.q_pow(l), ctx3.q_pow(l), ctx3).mat
            assert np.max(np.abs(F @ v)) < 1e-10 * np.max(np.abs(v))
            _, s, vt = np.linalg.svd(F)
            null = vt[-1].conj()
            null = null / null[0]
            assert s[-1] < 1e-10
            assert np.max(np.abs(null - v)) < 1e-9 * np.max(np.abs(v))

    @pytest.mark.parametrize("N,L", [(3, 1), (5, 2), (7, 3)])
    def test_matches_product_formula(self, N, L, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        x = draw_regular_x(rng, chain, ctx)
        for l in range(N):
            want = np.ones(1, dtype=complex)
            for cj in chain.c:
                site = [ctx.q_pow(k * k)
                        * pochhammer(x * cj * ctx.q_pow(-l - 2), ctx.omega_pow(-1), k)
                        / pochhammer(x * cj * ctx.q_pow(l + 2), ctx.omega, k)
                        for k in range(N)]
                want = np.kron(want, site)
            got = baxter_vector(x, l, chain, ctx)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_pole_locus(self, ctx5, rng):
        # the denominator (x c_j q^{l+2}; w)_k vanishes for k > i when
        # x c_j q^{l+2} w^i = 1
        chain = degenerate_chain(rng, 2)
        for l, i, j in ((1, 2, 1), (4, 0, 0), (0, 3, 1)):
            x = 1 / (chain.c[j] * ctx5.q_pow(l + 2) * ctx5.omega_pow(i))
            with pytest.raises(PoleError):
                baxter_vector(x, l, chain, ctx5)

    def test_periodic_in_l(self, ctx3, rng):
        chain = degenerate_chain(rng)
        x = draw_regular_x(rng, chain, ctx3)
        a = baxter_vector(x, 1, chain, ctx3)
        b = baxter_vector(x, 1 + 3, chain, ctx3)
        assert np.max(np.abs(a - b)) < 1e-13


class TestTAction:
    @pytest.mark.parametrize("N,L", [(3, 3), (5, 3), (3, 1)])
    def test_shift_relation(self, N, L, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        for _ in range(3):
            x = draw_regular_x(rng, chain, ctx)
            for l in range(N):
                tol = 1e-10 if L == 1 else 1e-9
                assert t_action_residual(chain, x, l, ctx) < tol

    def test_x_zero_consistency(self, ctx3, rng):
        from hofchain import transfer_T
        chain = degenerate_chain(rng)
        for l in range(3):
            T0 = transfer_T(chain.site_params(ctx3), 0.0, ctx3)
            lhs = T0.mat @ baxter_vector(0.0, l, chain, ctx3)
            rhs = baxter_vector(0.0, l - 1, chain, ctx3) \
                * (1 + delta_pm(0.0, l, +1, chain, ctx3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestStackedPoints:
    """Arrays x and l give what their points give one at a time."""

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_stack_matches_single_points(self, N, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng)
        xs = np.array([draw_regular_x(rng, chain, ctx) for _ in range(3)])
        res = t_action_residual(chain, xs[:, None], np.arange(N), ctx)
        deltas = {s: delta_pm(xs[:, None], np.arange(N), s, chain, ctx)
                  for s in (-1, 1)}
        assert res.shape == deltas[-1].shape == deltas[1].shape == (3, N)
        for i, l in np.ndindex(3, N):
            assert abs(res[i, l] - t_action_residual(chain, xs[i], l, ctx)) \
                <= 1e-15
            for s, d in deltas.items():
                assert abs(d[i, l] - delta_pm(xs[i], l, s, chain, ctx)) <= 1e-15
        assert abs(theorem1_residual(chain, xs, np.arange(N), ctx) - max(
            theorem1_residual(chain, x, np.arange(N), ctx) for x in xs)) \
            <= 1e-15
        # one (1 x N) plus row per sector: the stack is each sector's call
        assert theorem1_residual(chain, xs, np.arange(N), ctx) == max(
            theorem1_residual(chain, xs, l, ctx) for l in range(N))

    def test_nan_row(self, ctx5, rng):
        chain = degenerate_chain(rng)
        xs = np.array([draw_regular_x(rng, chain, ctx5) for _ in range(3)])
        xs[1] = np.nan
        with np.errstate(invalid="ignore"):     # complex division by NaN warns
            res = t_action_residual(chain, xs, 2, ctx5)
            deltas = [delta_pm(xs, 2, s, chain, ctx5) for s in (-1, 1)]
            assert np.isnan(theorem1_residual(chain, xs, [0, 1], ctx5))
        assert np.isnan(res[1]) and np.all(res[[0, 2]] < 1e-9)
        for d in deltas:
            assert np.isnan(d[1]) and np.all(np.isfinite(d[[0, 2]]))

    def test_pole_names_first_bad_site(self, ctx5, rng):
        # sites 1 and 2 share c_j, so x = q^l / c_1 is a pole of both
        c = unit_draws(rng, 2)
        chain = DegenerateChain((c[0], c[1], c[1]))
        bad = ctx5.q_pow(2) / c[1]
        for x in (bad, np.array([0.3, bad, 0.4j])):
            with pytest.raises(PoleError, match=r"pole at site j=1:"):
                delta_pm(x, 2, +1, chain, ctx5)


class TestGaugeNull:
    @pytest.mark.parametrize("N,L", [(3, 3), (5, 2)])
    def test_corner_block_annihilates(self, N, L, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        x = draw_regular_x(rng, chain, ctx)
        for l in range(N):
            xis = [ctx.q_pow(l)] * L
            blocks = gauge_chain_L(chain.site_params(ctx), x, xis, ctx)
            v = baxter_vector(x, l, chain, ctx)
            out = blocks[1, 0].mat @ v
            assert np.max(np.abs(out)) < 1e-9 * max(1, np.max(np.abs(v)))


class TestSectorVectors:
    def test_even_odd_weight_identity(self, ctx3, rng):
        chain = degenerate_chain(rng)
        x = draw_regular_x(rng, chain, ctx3)
        for l in range(3):
            vecs = sector_vectors(x, l, chain, ctx3)
            lhs = vecs["e_vec"] * u_weight(ctx3.q * x, chain, ctx3)
            rhs = vecs["o_vec"] * ctx3.q_pow(l) * u_weight(x, chain, ctx3)
            scale = max(1.0, np.max(np.abs(vecs["plus_vec"])))
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_plus_vector_equivalent_form(self, ctx3, rng):
        chain = degenerate_chain(rng)
        x = draw_regular_x(rng, chain, ctx3)
        for l in range(3):
            vecs = sector_vectors(x, l, chain, ctx3)
            two_e = 2 * ctx3.q_pow(-l) * vecs["e_vec"] \
                * u_weight(ctx3.q * x, chain, ctx3)
            scale = max(1.0, np.max(np.abs(vecs["plus_vec"])))
            assert np.max(np.abs(vecs["plus_vec"] - two_e)) / scale < 1e-9

    def test_x_zero_reduction(self, ctx3, rng):
        # u(0) = 1, f^e(0, .) = 1, so the vectors collapse to phase sums
        chain = degenerate_chain(rng)
        assert abs(u_weight(0.0, chain, ctx3) - 1) < 1e-14
        assert abs(f_even(0.0, 1, chain, ctx3) - 1) < 1e-14
        vecs = sector_vectors(0.0, 2, chain, ctx3)
        expect = sum(baxter_vector(0.0, (2 * n) % 3, chain, ctx3)
                     * ctx3.omega_pow(2 * n) for n in range(3))
        assert np.max(np.abs(vecs["e_vec"] - expect)) < 1e-12


    @pytest.mark.parametrize("N,L", [(3, 3), (5, 2), (7, 1)])
    def test_matches_explicit_sums_at_generic_x(self, N, L, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        x = draw_regular_x(rng, chain, ctx)

        def f(n, shift):
            out = 1.0 + 0.0j
            for cj in chain.c:
                out *= pochhammer(x * cj * ctx.q_pow(-shift), ctx.omega_pow(-1), n + 1) \
                    / pochhammer(x * cj * ctx.q_pow(shift), ctx.omega, n + 1)
            return out

        for l in range(N):
            vecs = sector_vectors(x, l, chain, ctx)
            e = sum(baxter_vector(x, 2 * n, chain, ctx)
                    * f(n, 0) * ctx.omega_pow(l * n) for n in range(N))
            o = sum(baxter_vector(x, 2 * n + 1, chain, ctx)
                    * f(n, 1) * ctx.omega_pow(l * n) for n in range(N))
            plus = e * ctx.q_pow(-l) * u_weight(ctx.q * x, chain, ctx) \
                + o * u_weight(x, chain, ctx)
            for key, want in (("e_vec", e), ("o_vec", o), ("plus_vec", plus)):
                err = np.max(np.abs(vecs[key] - want))
                assert err < 1e-12 * np.max(np.abs(want))


class TestTheorem1ii:
    @pytest.mark.parametrize("N,L", [(3, 3), (5, 3), (5, 2), (3, 1)])
    def test_transform(self, N, L, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        x = draw_regular_x(rng, chain, ctx)
        tol = 1e-10 if L == 1 else 1e-9
        for l in range(N):
            assert theorem1_residual(chain, x, l, ctx) < tol


class TestDivisibility:
    @pytest.mark.parametrize("N", [3, 5])
    def test_theorem1_iii(self, N, rng):
        # <phi|x>^+_m is a polynomial of degree <= (3M+1)L vanishing to
        # order m at 0 and on x^N = c_j^{-N}
        ctx = make_context(N)
        chain = degenerate_chain(rng, 3)
        T2 = transfer_pencil(chain.site_params(ctx), ctx).coeffs[1]
        deg = (3 * ctx.M + 1) * 3
        for m in range(ctx.M + 1):
            for l_sec, label in (((2 * m) % N, m), ((-2 * m) % N, (N - m) % N)):
                basis = sector_basis(ctx, 3, l_sec)
                Wl = np.column_stack(basis).conj()
                G = Wl.conj().T @ T2.mat.T @ Wl
                evals, evecs = np.linalg.eig(G)
                phi = Wl @ evecs[:, 0]
                coeffs = plus_pairing_coeffs(phi, label, chain, ctx, rng)
                scale = np.max(np.abs(coeffs))
                assert scale > 1e-6  # pairing is nontrivial
                if m > 0:
                    assert np.max(np.abs(coeffs[:m])) / scale < 1e-7
                bad = np.array([ctx.omega_pow(k) / cj for cj in chain.c
                                for k in range(N)])
                V = np.vander(bad, deg + 1, increasing=True)
                assert np.max(np.abs(V @ coeffs)) / scale < 1e-7


def reference_sector_vectors(x, l, chain, ctx):
    """|x>_l^e, |x>_l^o and |x>_l^+ for one (x, l), term by term."""
    N = ctx.N
    bax = [baxter_vector(x, lp, chain, ctx) for lp in range(N)]
    e = sum(bax[2 * n % N] * f_even(x, n, chain, ctx) * ctx.omega_pow(l * n)
            for n in range(N))
    o = sum(bax[(2 * n + 1) % N] * f_odd(x, n, chain, ctx) * ctx.omega_pow(l * n)
            for n in range(N))
    plus = e * ctx.q_pow(-l) * u_weight(ctx.q * x, chain, ctx) \
        + o * u_weight(x, chain, ctx)
    return {"e_vec": e, "o_vec": o, "plus_vec": plus}


def loop_draw_regular_x(rng, chain, ctx, nodes=(1,)):
    """draw_regular_x with its pole test written as a loop over (node, c_j, e);
    with nodes, the first draw x0 whose every x0 * node passes.  Also counts
    the candidates rejected by the linear test and by the quadratic test
    alone (near x c_j q^e = -1)."""
    radius = 1.0 / max(abs(cj) for cj in chain.c)
    rejected = np.zeros(2, dtype=int)
    while True:
        x0 = radius * unit_draws(rng, 1)[0]
        xs = [x0 * node for node in nodes]
        near = [any(abs(1 - x * cj * ctx.q_pow(e)) < 1e-4
                    for x in xs for cj in chain.c for e in range(ctx.N)),
                any(abs(1 - x * x * cj * cj * ctx.omega_pow(e)) < 1e-4
                    for x in xs for cj in chain.c for e in range(ctx.N))]
        if not any(near):
            return x0, rejected
        rejected += [near[0], near[1] and not near[0]]


BATCH_SIZES = [(N, L) for N in (3, 5, 7, 9) for L in (2, 3)]


class TestBatchedSectorVectors:
    """sector_vectors over arrays of x and l against the scalar pieces."""

    @pytest.mark.parametrize("N,L", BATCH_SIZES)
    def test_rows_match_scalar_reference(self, N, L, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        xs = np.array([draw_regular_x(rng, chain, ctx) for _ in range(3)])
        ls = np.arange(N)
        paired_ls = ls[[0, -1, 2 % N]]
        grid = sector_vectors(xs[:, None], ls, chain, ctx)
        pairs = sector_vectors(xs, paired_ls, chain, ctx)
        for key in ("e_vec", "o_vec", "plus_vec"):
            assert grid[key].shape == (3, N, N ** L)
            assert pairs[key].shape == (3, N ** L)
        for i, x in enumerate(xs):
            for l in ls:
                want = reference_sector_vectors(x, l, chain, ctx)
                for key, w in want.items():
                    err = np.max(np.abs(grid[key][i, l] - w))
                    assert err <= 1e-13 * np.max(np.abs(w))
            want = reference_sector_vectors(x, paired_ls[i], chain, ctx)
            err = np.max(np.abs(pairs["plus_vec"][i] - want["plus_vec"]))
            assert err <= 1e-13 * np.max(np.abs(want["plus_vec"]))

    @pytest.mark.parametrize("N,L", BATCH_SIZES)
    def test_theorem1_over_sectors_is_max_of_scalar_calls(self, N, L, rng):
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        x = draw_regular_x(rng, chain, ctx)
        scalar = [theorem1_residual(chain, x, l, ctx) for l in range(N)]
        assert theorem1_residual(chain, x, np.arange(N), ctx) == max(scalar)

    @pytest.mark.parametrize("N,L", BATCH_SIZES)
    def test_plus_pairing_matches_node_loop(self, N, L, rng):
        # the coefficients reproduce the pairing, formed point by point from
        # the scalar reference, at fresh points between the fit nodes; a
        # wrong degree bound or too few nodes (aliasing) fails here
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        phi = rng.standard_normal(N ** L) + 1j * rng.standard_normal(N ** L)
        label = N - 1
        coeffs = plus_pairing_coeffs(phi, label, chain, ctx, rng)
        assert len(coeffs) == (3 * ctx.M + 1) * L + 1
        xs = np.array([draw_regular_x(rng, chain, ctx) for _ in range(4)])
        want = np.array([phi @ reference_sector_vectors(x, label, chain, ctx)
                         ["plus_vec"] for x in xs])
        err = np.max(np.abs(np.polyval(coeffs[::-1], xs) - want))
        assert err <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("N,L", BATCH_SIZES)
    def test_stacked_pairing_matches_single_calls(self, N, L, rng):
        # one x0 and one table of Baxter rows for K labels: each row equals
        # a single call drawn from the same generator state
        ctx = make_context(N)
        chain = degenerate_chain(rng, L)
        labels = [0, 1, N - 1, 2 % N]
        phis = rng.standard_normal((4, N ** L)) + 1j * rng.standard_normal((4, N ** L))
        state = rng.bit_generator.state
        stacked = plus_pairing_coeffs(phis, labels, chain, ctx, rng)
        assert stacked.shape == (4, (3 * ctx.M + 1) * L + 1)
        for phi, label, row in zip(phis, labels, stacked):
            single = np.random.default_rng()
            single.bit_generator.state = state
            want = plus_pairing_coeffs(phi, label, chain, ctx, single)
            assert single.bit_generator.state == rng.bit_generator.state
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_pole_in_a_regular_batch_raises(self, ctx5, rng):
        chain = degenerate_chain(rng, 3)
        xs = np.array([draw_regular_x(rng, chain, ctx5) for _ in range(4)])
        sector_vectors(xs[:, None], np.arange(5), chain, ctx5)
        xs[2] = ctx5.omega_pow(3) / chain.c[1]    # a Baxter component pole
        with pytest.raises(PoleError):
            sector_vectors(xs[:, None], np.arange(5), chain, ctx5)
        with pytest.raises(PoleError):
            sector_vectors(xs, 0, chain, ctx5)
        with pytest.raises(PoleError):
            theorem1_residual(chain, xs[2], np.arange(5), ctx5)


class TestPoleTestDraws:
    """The array pole test accepts and rejects what the loop did."""

    @pytest.mark.parametrize("N,L", [(7, 3), (9, 3)])
    def test_draw_regular_x_bit_for_bit(self, N, L):
        ctx = make_context(N)
        chain = DegenerateChain(tuple(unit_draws(np.random.default_rng(N), L)))
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        rejected = 0
        for _ in range(2600):   # both branches reject by then at these seeds
            want, r = loop_draw_regular_x(b, chain, ctx)
            assert draw_regular_x(a, chain, ctx) == want
            rejected = rejected + r
        assert a.bit_generator.state == b.bit_generator.state
        assert np.all(rejected > 0)     # both rejection branches ran

    @pytest.mark.parametrize("N,L", [(5, 3), (9, 3), (11, 3)])
    def test_rotation_keeps_every_node_regular(self, N, L):
        # plus_pairing_coeffs' rotation: every node passes draw_regular_x's test
        ctx = make_context(N)
        n = (3 * ctx.M + 1) * L + 1
        nodes = np.exp(2j * np.pi * np.arange(n) / n)
        rejected = 0
        for seed in range(4):
            chain = DegenerateChain(tuple(unit_draws(np.random.default_rng(seed), L)))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(60):
                want, r = loop_draw_regular_x(b, chain, ctx, nodes)
                assert _regular_rotation(a, chain, ctx, nodes) == want
                rejected += r.sum()
            assert a.bit_generator.state == b.bit_generator.state
        assert rejected > 0      # the rejection branch ran
