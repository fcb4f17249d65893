import csv
import hashlib
import itertools
import json

import numpy as np
import pytest

from hofchain import (ChainParams, PoleError, SiteParams, commutator_residual,
                      hofstadter_hamiltonian, kron, make_context, r_matrix,
                      rll_residual, transfer_T, transfer_pencil, weyl_matrices)
from hofchain import cli, transfer, weylcore
from hofchain.baxter import DegenerateChain
from hofchain.curves import HofstadterChain3
from hofchain.transfer import (fill_hamiltonian, flux_diagonals,
                               hamiltonian_params, path_table, sector_pencil,
                               sector_spectrum, transfer_apply)
from hofchain.weylcore import (Operator, flux_roots, sector_basis,
                               sector_monomial, sector_orbits, sector_project,
                               unit_draws)

from conftest import draw_chain, draw_site
from oracle import (chain_L, f_op, global_shift_D, heisenberg_UV, identity_op,
                    local_L, t2_formula_L3)

# N <= 7, L <= 4 but not N = 7, L = 4: its dense oracles (2401 wide) would
# hold about 0.5 GB
SMALL_CHAINS = [(N, L) for N in (3, 5, 7) for L in (1, 2, 3, 4) if N ** L < 2401]


class TestLocalL:
    def test_x_zero_blocks(self, ctx3, rng):
        h = draw_site(rng)
        blocks = local_L(h, 0.0, ctx3)
        w = weyl_matrices(ctx3)
        assert np.allclose(blocks[0, 0].mat, h.a * w["Y"].mat)
        assert np.allclose(blocks[0, 1].mat, 0)
        assert np.allclose(blocks[1, 0].mat, 0)
        assert np.allclose(blocks[1, 1].mat, h.d * np.eye(3))

    def test_identity_site(self, ctx3):
        blocks = local_L(SiteParams(1, 0, 0, 1), 0.37 + 0.2j, ctx3)
        w = weyl_matrices(ctx3)
        assert np.allclose(blocks[0, 0].mat, w["Y"].mat)
        assert np.allclose(blocks[0, 1].mat, 0)
        assert np.allclose(blocks[1, 0].mat, 0)
        assert np.allclose(blocks[1, 1].mat, np.eye(3))

    def test_generic_hand_built(self, ctx3, rng):
        h = draw_site(rng)
        x = 1.0
        blocks = local_L(h, x, ctx3)
        w = weyl_matrices(ctx3)
        assert np.allclose(blocks[0, 1].mat, x * h.b * w["X"].mat)
        assert np.allclose(blocks[1, 0].mat, x * h.c * w["Z"].mat)


class TestRMatrix:
    def test_x_one(self, ctx3):
        R = r_matrix(1.0, ctx3)
        w = ctx3.omega
        assert abs(R[0, 0] - (w - 1)) < 1e-14
        assert abs(R[3, 3] - (w - 1)) < 1e-14
        assert abs(R[1, 1]) < 1e-14
        assert abs(R[2, 2]) < 1e-14
        assert abs(R[1, 2] - (w - 1)) < 1e-14
        assert abs(R[2, 1] - (w - 1)) < 1e-14

    def test_entries_by_substitution(self, ctx3):
        x = 2.0
        R = r_matrix(x, ctx3)
        w = ctx3.omega
        expect = np.array([
            [x * w - 1 / x, 0, 0, 0],
            [0, w * (x - 1 / x), w - 1, 0],
            [0, w - 1, x - 1 / x, 0],
            [0, 0, 0, x * w - 1 / x]])
        assert np.allclose(R, expect, atol=1e-14)

    def test_pole(self, ctx3):
        with pytest.raises(PoleError):
            r_matrix(0.0, ctx3)


class TestRLL:
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_generic(self, N, rng):
        ctx = make_context(N)
        for _ in range(5):
            h = draw_site(rng)
            x, xp = unit_draws(rng, 2)
            assert rll_residual(h, x, xp, ctx) < 1e-10

    def test_diagonal_site(self, ctx3, rng):
        x, xp = unit_draws(rng, 2)
        assert rll_residual(SiteParams(1, 0, 0, 1), x, xp, ctx3) < 1e-12

    def test_equal_arguments(self, ctx3, rng):
        h = draw_site(rng)
        x = unit_draws(rng, 1)[0]
        assert rll_residual(h, x, x, ctx3) < 1e-10

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_stack_matches_single_draws(self, N, rng):
        ctx = make_context(N)
        sites = [draw_site(rng) for _ in range(6)]
        x, xp = unit_draws(rng, 6), unit_draws(rng, 6)
        stacked = rll_residual(sites, x, xp, ctx)
        assert stacked.shape == (6,)
        for h, a, b, res in zip(sites, x, xp, stacked):
            assert abs(res - rll_residual(h, a, b, ctx)) <= 1e-15

    def test_nan_row(self, ctx5, rng):
        sites = [draw_site(rng) for _ in range(3)]
        x, xp = unit_draws(rng, 3), unit_draws(rng, 3)
        x[1] = np.nan
        with np.errstate(invalid="ignore"):     # complex division by NaN warns
            out = rll_residual(sites, x, xp, ctx5)
        assert np.isnan(out[1]) and np.all(out[[0, 2]] < 1e-10)

    def test_pole_in_stack(self, ctx3, rng):
        x = unit_draws(rng, 3)
        x[2] = 0
        with pytest.raises(PoleError):
            rll_residual([draw_site(rng) for _ in range(3)], x, 1.0, ctx3)


class TestTransferApply:
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_row_x_matches_single_rows(self, N, rng):
        ctx = make_context(N)
        chain = draw_chain(rng, 3)
        v = unit_draws(rng, 4 * N ** 3).reshape(4, N ** 3)
        x = unit_draws(rng, 4)
        stacked = transfer.transfer_apply(chain, x, ctx, v)
        for b in range(4):
            single = transfer.transfer_apply(chain, x[b], ctx, v[b])
            assert np.max(np.abs(stacked[b] - single)) <= 1e-15
            dense = transfer_T(chain, x[b], ctx).mat @ v[b]
            assert np.max(np.abs(single - dense)) < 1e-12

    def test_nan_row(self, ctx3, rng):
        chain = draw_chain(rng, 2)
        x = unit_draws(rng, 3)
        x[1] = np.nan
        out = transfer.transfer_apply(chain, x, ctx3, np.ones((3, 9)))
        assert np.all(np.isnan(out[1])) and np.all(np.isfinite(out[[0, 2]]))


class TestFOp:
    def test_x_zero(self, ctx3, rng):
        h = draw_site(rng)
        xi, xip = unit_draws(rng, 2)
        F = f_op(h, 0.0, xi, xip, ctx3)
        w = weyl_matrices(ctx3)
        expect = xip * h.a * w["Y"].mat - xi * h.d * np.eye(3)
        assert np.allclose(F.mat, expect, atol=1e-14)

    def test_hofstadter_site(self, ctx3, rng):
        # a = d = 0, b = c = 1: F = -x X + xi' xi x Z
        xi, xip = unit_draws(rng, 2)
        x = 0.8 + 0.1j
        F = f_op(SiteParams(0, 1, 1, 0), x, xi, xip, ctx3)
        w = weyl_matrices(ctx3)
        assert np.allclose(F.mat, -x * w["X"].mat + xip * xi * x * w["Z"].mat)

    def test_generic_entrywise(self, ctx3, rng):
        h = draw_site(rng)
        xi, xip = unit_draws(rng, 2)
        x = unit_draws(rng, 1)[0]
        F = f_op(h, x, xi, xip, ctx3).mat
        w = weyl_matrices(ctx3)
        expect = (xip * h.a * w["Y"].mat - x * h.b * w["X"].mat
                  + xip * xi * x * h.c * w["Z"].mat - xi * h.d * np.eye(3))
        assert np.allclose(F, expect, atol=1e-14)


class TestTransfer:
    def test_L1_trace(self, ctx3, rng):
        h = draw_site(rng)
        x = unit_draws(rng, 1)[0]
        T = transfer_T(ChainParams((h,)), x, ctx3)
        w = weyl_matrices(ctx3)
        assert np.allclose(T.mat, h.a * w["Y"].mat + h.d * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_constant_term(self, ctx3, rng, L):
        chain = draw_chain(rng, L)
        T0 = transfer_T(chain, 0.0, ctx3)
        w = weyl_matrices(ctx3)
        a_prod = np.prod([h.a for h in chain.sites])
        d_prod = np.prod([h.d for h in chain.sites])
        expect = a_prod * kron([w["Y"]] * L).mat + d_prod * np.eye(3**L)
        assert np.max(np.abs(T0.mat - expect)) < 1e-12

    def test_even_in_x(self, ctx3, rng):
        chain = draw_chain(rng, 3)
        x = unit_draws(rng, 1)[0]
        Tp = transfer_T(chain, x, ctx3).mat
        Tm = transfer_T(chain, -x, ctx3).mat
        assert np.max(np.abs(Tp - Tm)) < 1e-10

    @pytest.mark.parametrize("N,L", SMALL_CHAINS)
    def test_equals_full_aux_trace(self, N, L, rng):
        # T is laid out from the path table; the trace of the L-operator
        # chain product is the reference
        ctx = make_context(N)
        chain = draw_chain(rng, L)
        h = chain.sites[0]
        sparse = ChainParams((SiteParams(h.a, 0, h.c, h.d),) + chain.sites[1:])
        for chain, x in itertools.product(
                (chain, sparse), (0.0, unit_draws(rng, 1)[0], 1.7 - 0.4j)):
            got = transfer_T(chain, x, ctx)
            want = chain_L(chain, x, ctx).trace_aux()
            assert got.ctx_tag == want.ctx_tag
            assert np.max(np.abs(got.mat - want.mat)) < 1e-14 * max(1, abs(x)) ** L

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_path_table(self, L):
        # one path per a in {0,1}^L, each monomial commutes with D, and T(x)
        # is even in x, of degree 2 floor(L/2)
        a, b, degree = path_table(L)
        assert sorted(map(tuple, a)) == sorted(itertools.product((0, 1), repeat=L))
        assert not np.any((a - b).sum(axis=1)) and not np.any(degree % 2)
        assert degree.max() == 2 * (L // 2)


class TestGeometryCaches:
    """The digit, path and path-column tables are built once per (N, L) and
    shared by every reader of T(x): a reader can neither write into them nor
    see a result that depends on what the caches held before."""

    CACHES = (weylcore._digits, path_table, transfer._path_columns)

    @staticmethod
    def readers(N, L):
        """A digest of each reader's result at (N, L), bit for bit; the dense
        T(x) at N = 7, L = 4 is 92 MB, so no result is kept."""
        ctx, rng = make_context(N), np.random.default_rng([N, L])
        chain, (x, xp) = draw_chain(rng, L), unit_draws(rng, 2)
        v = rng.standard_normal((3, N ** L)) + 0j
        a, b, _ = path_table(L)
        T = transfer_T(chain, x, ctx).mat
        results = (T, transfer_apply(chain, [x, xp, 0.5], ctx, v),
                   *sector_monomial(ctx, np.arange(N), a, b),
                   *sector_orbits(ctx, L, np.arange(N)),
                   *transfer._shift_diagonals(T, N, L))
        return [hashlib.sha256(np.ascontiguousarray(r).tobytes()).hexdigest()
                + f"{r.dtype}{r.shape}" for r in results]

    def test_tables_are_read_only(self):
        for table in (weylcore._digits(5, 3), *path_table(3),
                      *transfer._path_columns(5, 3)):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 0

    def test_results_do_not_depend_on_the_cache(self):
        # L outer and N inner, twice over, so that every table is evicted,
        # rebuilt and hit; each result is then taken again from empty caches
        order = [(N, L) for L in (1, 2, 3, 4) for N in (3, 5, 7)] * 2
        warm = [self.readers(N, L) for N, L in order]
        for (N, L), got in zip(order, warm):
            for cache in self.CACHES:
                cache.cache_clear()
            assert got == self.readers(N, L), (N, L)


class TestPencil:
    def test_L1_single_coefficient(self, ctx3, rng):
        chain = draw_chain(rng, 1)
        pencil = transfer_pencil(chain, ctx3)
        assert len(pencil.coeffs) == 1
        x = unit_draws(rng, 1)[0]
        assert np.max(np.abs(pencil(x).mat - transfer_T(chain, x, ctx3).mat)) < 1e-11

    def test_L2_direct_expansion(self, ctx3, rng):
        # tr(L_0 L_1): x^2 coefficient is b0 c1 X(x)Z + c0 b1 Z(x)X
        chain = draw_chain(rng, 2)
        h0, h1 = chain.sites
        pencil = transfer_pencil(chain, ctx3)
        assert len(pencil.coeffs) == 2
        w = weyl_matrices(ctx3)
        expect = h0.b * h1.c * kron([w["X"], w["Z"]]).mat \
            + h0.c * h1.b * kron([w["Z"], w["X"]]).mat
        assert np.max(np.abs(pencil.coeffs[1].mat - expect)) < 1e-11

    def test_L3_termwise_formula(self, ctx3, rng):
        chain = draw_chain(rng, 3)
        pencil = transfer_pencil(chain, ctx3)
        T2 = t2_formula_L3(chain, ctx3)
        assert np.max(np.abs(pencil.coeffs[1].mat - T2.mat)) < 1e-12

    def test_reconstruction(self, ctx3, rng):
        chain = draw_chain(rng, 3)
        pencil = transfer_pencil(chain, ctx3)
        for _ in range(3):
            x = unit_draws(rng, 1)[0] * 1.7
            assert np.max(np.abs(pencil(x).mat
                                 - transfer_T(chain, x, ctx3).mat)) < 1e-10

    def test_degenerate_constant_term_is_shift_plus_one(self, rng):
        # on the rational slice T_0 = D + 1, so Lambda(0) = q^l + 1 per sector
        from hofchain import DegenerateChain
        for N, L in ((3, 3), (5, 2)):
            ctx = make_context(N)
            chain = DegenerateChain(tuple(unit_draws(rng, L)))
            T0 = transfer_pencil(chain.site_params(ctx), ctx).coeffs[0].mat
            D = global_shift_D(ctx, L).mat
            assert np.max(np.abs(T0 - D - np.eye(N**L))) < 1e-11

    def test_T2_commutes_with_shift(self, ctx3, rng):
        # sector preservation: [T_2, D] = 0 for any chain, since the
        # commuting family forces [T_0, T_2] = 0 and T_0 is affine in D
        chain = draw_chain(rng, 3)
        T2 = transfer_pencil(chain, ctx3).coeffs[1].mat
        D = global_shift_D(ctx3, 3).mat
        assert np.max(np.abs(T2 @ D - D @ T2)) < 1e-10


class TestCommutingFamily:
    @pytest.mark.parametrize("N,L", [(3, 1), (3, 2), (3, 3), (5, 2)])
    def test_generic(self, N, L, rng):
        ctx = make_context(N)
        for _ in range(3):
            chain = draw_chain(rng, L)
            x, xp = unit_draws(rng, 2)
            assert commutator_residual(chain, x, xp, ctx) < 1e-10

    def test_equal_points(self, ctx3, rng):
        chain = draw_chain(rng, 2)
        x = unit_draws(rng, 1)[0]
        assert commutator_residual(chain, x, x, ctx3) == 0.0

    @pytest.mark.parametrize("N,L", SMALL_CHAINS)
    def test_matches_dense_oracle(self, N, L, rng):
        ctx = make_context(N)
        chain = draw_chain(rng, L)
        h = chain.sites[0]
        sparse = ChainParams((SiteParams(h.a, 0, h.c, h.d),) + chain.sites[1:])
        for chain in (chain, sparse):   # the second has vanishing paths
            x, xp = unit_draws(rng, 2)
            A = transfer_T(chain, x, ctx).mat
            B = transfer_T(chain, xp, ctx).mat
            dense = np.max(np.abs(A @ B - B @ A))
            assert abs(commutator_residual(chain, x, xp, ctx) - dense) < 1e-14

    @pytest.mark.parametrize("x,xp", [(0, 0.3 + 2j), (1.7 - 0.4j, 0.3 + 2j),
                                      (0.2j, -3)])
    @pytest.mark.parametrize("N,L", itertools.product((3, 5, 7), (1, 2, 3)))
    def test_off_the_unit_circle(self, N, L, x, xp, rng):
        # the residual scales each shift diagonal of T(1) by x^degree, which
        # matches the dense commutator of T(x) and T(x') off the unit circle
        # only if the degrees are right; x = 0 takes 0^0 = 1 on the constant
        # paths.  The constant paths (I and Y (x) .. (x) Y) commute with
        # every T(x), so no commutator sees their degree
        ctx = make_context(N)
        chain = draw_chain(rng, L)
        A = transfer_T(chain, x, ctx).mat
        B = transfer_T(chain, xp, ctx).mat
        dense = np.max(np.abs(A @ B - B @ A))
        assert (abs(commutator_residual(chain, x, xp, ctx) - dense)
                < 1e-14 * max(1, abs(x), abs(xp)) ** (2 * L))

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_one_dense_transfer_per_call(self, L, rng, monkeypatch):
        real, calls = transfer.transfer_T, []

        def counted(chain, x, ctx):
            calls.append(x)
            return real(chain, x, ctx)

        monkeypatch.setattr(transfer, "transfer_T", counted)
        x, xp = unit_draws(rng, 2)
        commutator_residual(draw_chain(rng, L), x, xp, make_context(5))
        assert calls == [1]

    def test_stray_nonzero_is_named(self, tmp_path, monkeypatch, rng):
        # column 2 of row 0 is off every shift diagonal: they lower digits by 0 or 1
        real = transfer.transfer_T

        def stray(chain, x, ctx):
            T = real(chain, x, ctx)
            T.mat[0, 2] = 1.0
            return T

        monkeypatch.setattr(transfer, "transfer_T", stray)
        x, xp = unit_draws(rng, 2)
        with pytest.raises(ValueError, match=r"at \(row 0, column 2\)$"):
            commutator_residual(draw_chain(rng, 2), x, xp, make_context(5))
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--N", "5", "--out", str(out)]) == 1
        records = {r["suite"]: r for r in json.loads(out.read_text())["suites"]}
        assert records["commutator"]["error"]["class"] == "ValueError"
        assert "(row 0, column 2)" in records["commutator"]["error"]["message"]
        assert all(r["pass"] for name, r in records.items()
                   if name != "commutator")

    @pytest.mark.parametrize("N,L", [(3, 1), (3, 2), (5, 3)])
    def test_shift_diagonals_in_pattern_order(self, N, L):
        # row r of S_s has its 1 at the digits of r minus s, for the
        # patterns s in np.indices order; D_s = k + 1 on pattern k reads
        # each diagonal back in that order
        digits = np.array(np.unravel_index(np.arange(N ** L), (N,) * L))
        patterns = np.indices((2,) * L).reshape(L, -1).T
        want = np.array([np.ravel_multi_index((digits - s[:, None]) % N,
                                              (N,) * L) for s in patterns])
        mat = np.zeros((N ** L, N ** L), dtype=complex)
        for k, c in enumerate(want):
            mat[np.arange(N ** L), c] = k + 1
        cols, D = transfer._shift_diagonals(mat, N, L)
        assert np.array_equal(cols, want)
        assert np.array_equal(D, np.arange(1, 2 ** L + 1)[:, None]
                              * np.ones(N ** L))

    @pytest.mark.parametrize("row,col,value", [(0, 2, 5e-324j), (24, 0, 1.0)])
    def test_off_pattern_check_is_exact(self, row, col, value, rng):
        # a subnormal, imaginary-only stray entry and one in the last row
        ctx = make_context(5)
        mat = transfer_T(draw_chain(rng, 2), unit_draws(rng, 1)[0], ctx).mat
        mat[row, col] = value
        with pytest.raises(ValueError,
                           match=rf"at \(row {row}, column {col}\)$"):
            transfer._shift_diagonals(mat, 5, 2)

    def test_equal_points_l3(self, ctx5, rng):
        x = unit_draws(rng, 1)[0]
        assert commutator_residual(draw_chain(rng, 3), x, x, ctx5) == 0.0


def hofstadter_sector_factor(ctx, l: int) -> complex:
    """gamma for which the sector-l restriction of q D^{-1/2} T_2 is H_FK.

    On the q^l eigenspace of D the W-term coefficient of the L=3
    degenerate transfer matrix reduces to gamma_l = (q^{-1} q^{l/2})^{-1}.
    """
    return 1.0 / (ctx.q_pow(-1) * ctx.q_half_pow(l))


class TestHeisenberg:
    @pytest.mark.parametrize("N", [3, 5])
    def test_weyl_triple(self, N):
        ctx = make_context(N)
        ops = heisenberg_UV(ctx)
        U, V, W = ops["U"].mat, ops["V"].mat, ops["W"].mat
        w = ctx.omega
        eye = np.eye(N**3)
        assert np.max(np.abs(U @ V - w * V @ U)) < 1e-10
        assert np.max(np.abs(V @ W - w * W @ V)) < 1e-10
        assert np.max(np.abs(W @ U - w * U @ W)) < 1e-10
        for Op in (U, V, W):
            assert np.max(np.abs(np.linalg.matrix_power(Op, N) - eye)) < 1e-10

    def test_qD_triple_product(self, ctx3):
        w = weyl_matrices(ctx3)
        X, Z = w["X"], w["Z"]
        I = identity_op(ctx3)
        D = heisenberg_UV(ctx3)["D"].mat
        prod = kron([Z, X, I]).mat @ kron([X, I, Z]).mat @ kron([I, Z, X]).mat
        assert np.max(np.abs(ctx3.q * D - prod)) < 1e-13

    @pytest.mark.parametrize("N", [3, 5])
    def test_hofstadter_form_of_T2(self, N, rng):
        # q D^{-1/2} T_2 = c0c1(U+U^-1) + c0c2(V+V^-1)
        #                  + c1c2(q^-1 D^{1/2} UV + q D^{-1/2} V^-1 U^-1)
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        chain = DegenerateChain(tuple(c))
        T2 = transfer_pencil(chain.site_params(ctx), ctx).coeffs[1]
        ops = heisenberg_UV(ctx)
        U, V = ops["U"].mat, ops["V"].mat
        Ui, Vi = np.linalg.inv(U), np.linalg.inv(V)
        Dh, Dmh = ops["D_half"].mat, ops["D_mhalf"].mat
        lhs = ctx.q * Dmh @ T2.mat
        rhs = (c[0] * c[1] * (U + Ui) + c[0] * c[2] * (V + Vi)
               + c[1] * c[2] * (ctx.q_pow(-1) * Dh @ U @ V
                                + ctx.q * Dmh @ Vi @ Ui))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_sector_spectra_match_small_hamiltonian(self, ctx3, rng):
        # per-sector spectrum of q D^{-1/2} T_2 equals N copies of the
        # N x N flux Hamiltonian at gamma_l
        ctx = ctx3
        c = unit_draws(rng, 3)
        chain = DegenerateChain(tuple(c))
        T2 = transfer_pencil(chain.site_params(ctx), ctx).coeffs[1]
        Dmh = heisenberg_UV(ctx)["D_mhalf"]
        big = ctx.q * (Dmh @ T2)
        for l in range(3):
            sec = np.sort_complex(sector_spectrum(big, ctx, 3, l))
            H = hofstadter_hamiltonian(ctx, c[0] * c[1], c[0] * c[2],
                                       c[1] * c[2], 1.0, 1.0,
                                       hofstadter_sector_factor(ctx, l))
            small = np.sort_complex(np.tile(np.linalg.eigvals(H.mat), 3))
            assert np.max(np.abs(sec - small)) < 1e-9


class TestFluxDictionary:
    @pytest.mark.parametrize("N", [3, 5])
    def test_hofstadter_chain_reduces_to_flux_hamiltonian(self, N, rng):
        # x^{-2} D^{-1/2} T(x) = mu(aU + (aU)^-1) + nu(bV + (bV)^-1) with
        # mu^2 = q b1 c1 a2 d2, a^2 = q^-1 b1 c1^-1 a2^-1 d2,
        # nu^2 = q a1 d1 b2 c2, b^2 = q^-1 a1^-1 d1 b2^-1 c2
        from hofchain.curves import HofstadterChain3
        ctx = make_context(N)
        chain = HofstadterChain3(draw_site(rng), draw_site(rng))
        h1, h2 = chain.h1, chain.h2
        x = 0.8 * np.exp(0.31j)
        ops = heisenberg_UV(ctx)
        U, V, Dmh = ops["U"].mat, ops["V"].mat, ops["D_mhalf"].mat
        Ui, Vi = np.linalg.inv(U), np.linalg.inv(V)
        lhs = Dmh @ transfer_T(chain.chain_params(), x, ctx).mat / x**2
        mu = np.sqrt(ctx.q * h1.b * h1.c * h2.a * h2.d)
        alpha = np.sqrt(ctx.q_pow(-1) * h1.b / h1.c / h2.a * h2.d)
        nu = np.sqrt(ctx.q * h1.a * h1.d * h2.b * h2.c)
        beta = np.sqrt(ctx.q_pow(-1) / h1.a * h1.d / h2.b * h2.c)
        # square roots are fixed only jointly: (mu, a) -> (-mu, -a) is a
        # symmetry of the Hamiltonian, so match one product per pair
        if abs(mu * alpha - h1.b * h2.d) > 1e-9:
            alpha = -alpha
        if abs(nu * beta - h1.d * h2.c) > 1e-9:
            beta = -beta
        rhs = mu * (alpha * U + Ui / alpha) + nu * (beta * V + Vi / beta)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestHofstadterHamiltonian:
    def test_harper_form(self, ctx3):
        H = hofstadter_hamiltonian(ctx3, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0).mat
        w = weyl_matrices(ctx3)
        expect = w["Z"].mat + w["Z"].mat.conj().T + w["X"].mat + w["X"].mat.conj().T
        assert np.allclose(H, expect, atol=1e-14)
        assert abs(np.trace(H)) < 1e-12

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_spectral_reflection(self, N):
        # E -> -E maps the rho = 0 spectrum onto the point with both phases
        # advanced by exp(i pi / N): -H(a, b) = H(-a, -b) and -1 is the
        # half-step exp(i pi / N) modulo the magnetic translation orbit.
        ctx = make_context(N)
        g = np.exp(1j * np.pi / N)
        H0 = hofstadter_hamiltonian(ctx, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0).mat
        Hg = hofstadter_hamiltonian(ctx, 1.0, 1.0, 0.0, g, g, 1.0).mat
        e0 = np.sort(np.linalg.eigvalsh(H0))
        eg = np.sort(np.linalg.eigvalsh(Hg))
        assert np.max(np.abs(e0 + eg[::-1])) < 1e-9

    def test_hermitian(self, ctx5):
        a = np.exp(0.3j)
        H = hofstadter_hamiltonian(ctx5, 0.7, 1.3, 0.4, a, a**2, a**3).mat
        assert np.max(np.abs(H - H.conj().T)) < 1e-13

    @pytest.mark.parametrize("N", [3, 5])
    def test_off_unit_circle_phases(self, N):
        # (aU)^{-1} for |a| != 1, against the definition with explicit inverses
        ctx = make_context(N)
        alpha, beta, gamma = 2.0, 0.5j, 1.5
        w = weyl_matrices(ctx)
        U, V = w["Z"].mat, w["X"].mat
        W = np.linalg.inv(w["Y"].mat)
        expect = (0.7 * (alpha * U + np.linalg.inv(alpha * U))
                  + 1.3 * (beta * V + np.linalg.inv(beta * V))
                  + 0.4 * (gamma * W + np.linalg.inv(gamma * W)))
        H = hofstadter_hamiltonian(ctx, 0.7, 1.3, 0.4, alpha, beta, gamma).mat
        assert np.max(np.abs(H - expect)) < 1e-13

    @pytest.mark.parametrize("N", [3, 5, 7, 9, 11])
    @pytest.mark.parametrize("cast", [complex, np.complex128])
    def test_three_diagonals_equal_weyl_sum(self, N, cast):
        # bit for bit against the dense Weyl-matrix sum; the CLI passes
        # Python complex phases, numpy callers numpy scalars
        rng = np.random.default_rng(N)
        k = np.arange(N)
        band = np.zeros((N, N), dtype=bool)
        band[k, k] = band[(k + 1) % N, k] = band[k, (k + 1) % N] = True
        for P in [p for p in range(1, N) if np.gcd(p, N) == 1]:
            ctx = make_context(N, P)
            w = weyl_matrices(ctx)
            U, V, W = w["Z"].mat, w["X"].mat, w["Y"].mat.conj().T
            for _ in range(4):
                mu, nu, rho = (float(v) for v in rng.normal(size=3))
                alpha, beta, gamma = (cast(z) for z in unit_draws(rng, 3))
                expect = (mu * (alpha * U + U.conj().T / alpha)
                          + nu * (beta * V + V.conj().T / beta)
                          + rho * (gamma * W + W.conj().T / gamma))
                H = hofstadter_hamiltonian(ctx, mu, nu, rho, alpha, beta, gamma).mat
                assert np.array_equal(H, expect)
                assert not np.any(H[~band])

    @pytest.mark.parametrize("N", [3, 5, 9, 31])
    def test_flux_block_equals_weyl_sums(self, N):
        # one block of every coprime flux, each written into one reused
        # buffer, against the dense Weyl-matrix sum of its own context
        rng = np.random.default_rng(N)
        mu, nu, rho = (float(v) for v in rng.normal(size=3))
        alpha, beta, gamma = (complex(z) for z in unit_draws(rng, 3))
        params = hamiltonian_params(mu, nu, rho, alpha, beta, gamma)
        fluxes = [p for p in range(1, N) if np.gcd(p, N) == 1]
        diags = flux_diagonals(flux_roots(N, np.array(fluxes)), params)
        assert diags.shape == (len(fluxes), 3, N)
        H = np.zeros((N, N), dtype=complex)
        fill_hamiltonian(H, np.full((3, N), np.nan))    # each flux overwrites
        for P, d in zip(fluxes, diags):
            w = weyl_matrices(make_context(N, P))
            U, V, W = w["Z"].mat, w["X"].mat, w["Y"].mat.conj().T
            expect = (mu * (alpha * U + U.conj().T / alpha)
                      + nu * (beta * V + V.conj().T / beta)
                      + rho * (gamma * W + W.conj().T / gamma))
            assert fill_hamiltonian(H, d) is H
            assert np.array_equal(H, expect), P

    def test_zero_coefficient_rejected(self, ctx3):
        with pytest.raises(ValueError):
            hofstadter_hamiltonian(ctx3, 1, 1, 1, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0)])
    def test_non_finite_parameter_named(self, ctx3, bad):
        # the first non-finite one is named, before it reaches any arithmetic
        params = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        for i, name in enumerate(("mu", "nu", "rho", "alpha", "beta", "gamma")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                hofstadter_hamiltonian(ctx3, *params[:i], bad, *params[i + 1:])
        with pytest.raises(ValueError, match="^nu must be finite"):
            hofstadter_hamiltonian(ctx3, 1.0, bad, 1.0, 1.0, 1.0, bad)

    @pytest.mark.parametrize("N, P, mu, nu", [(5, 1, 1.3, 0.8),
                                              (7, 3, 0.7, 1.1),
                                              (11, 2, 1.2, 0.9)])
    def test_chambers_relation_on_exported_spectra(self, tmp_path, N, P, mu, nu):
        # Chambers (Phys. Rev. 140, A135, 1965): at rho = 0,
        # det(E - H) = prod_i (E - e_i) is affine in alpha^N + alpha^-N with
        # slope -mu^N, so det(E - H) + mu^N (alpha^N + alpha^-N) is constant
        # in alpha; e_i are the butterfly CSV energies of flux P/N.
        E = 0.37 + 0.11j
        alphas = np.exp(2j * np.pi * np.array([0.05, 0.23, 0.41, 0.77]))
        dets = []
        for alpha in alphas:
            out = tmp_path / "b.csv"
            assert cli.cmd_butterfly(cli.RunConfig([N], out=str(out)), mu, nu,
                                     0.0, complex(alpha), np.exp(0.3j), 1.0) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                energies = [float(r["energy_re"]) for r in csv.DictReader(fh)
                            if int(r["P"]) == P]
            assert len(energies) == N
            dets.append(np.prod(E - np.array(energies)))
        dets = np.array(dets)
        shifted = dets + mu**N * (alphas**N + alphas**-N)
        defect = np.max(np.abs(shifted - shifted.mean())) / np.max(np.abs(dets))
        assert defect < 1e-12


def dense_even_coeffs(chain, ctx):
    """[T_0, T_2, ...] by interpolating dense transfer_T in x^2 at 1..K."""
    K = chain.L // 2 + 1
    xsq = np.arange(1, K + 1, dtype=float)
    mats = np.array([transfer_T(chain, np.sqrt(s), ctx).mat for s in xsq])
    V = np.vander(xsq, K, increasing=True)
    return np.linalg.solve(V, mats.reshape(K, -1)).reshape(mats.shape)


class TestMatrixFree:
    """transfer_apply and sector_pencil against the dense reference."""

    @pytest.mark.parametrize("N,L", [(N, L) for N in (3, 5, 7)
                                     for L in (1, 2, 3, 4)] + [(3, 5)])
    def test_terms_match_transfer_T(self, N, L, rng):
        # T(x) is even in x (test_path_table, test_even_in_x), so the pencil
        # has the floor(L/2) + 1 coefficients of x^(2k); L = 4 has three.
        # Its length depends on L alone, so it is read at N = 3, where its
        # dense coefficients are small
        ctx = make_context(N)
        frozen = HofstadterChain3(draw_site(rng), draw_site(rng)).h0  # a = d = 0
        chains = [draw_chain(rng, L),
                  ChainParams((frozen,) + draw_chain(rng, L - 1).sites
                              if L > 1 else (frozen,))]
        rows = rng.standard_normal((4, N**L)) + 1j * rng.standard_normal((4, N**L))
        for chain in chains:
            assert len(transfer_pencil(chain, make_context(3)).coeffs) \
                == L // 2 + 1
            for x in (0.0, unit_draws(rng, 1)[0], 1.7):
                want = rows @ transfer_T(chain, x, ctx).mat.T
                got = transfer.transfer_apply(chain, x, ctx, rows)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            xs = unit_draws(rng, 4)         # one x per row
            want = np.array([transfer_T(chain, x, ctx).mat @ r
                             for x, r in zip(xs, rows)])
            got = transfer.transfer_apply(chain, xs, ctx, rows)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if L == 1:      # a = d = 0 zeroes both closed paths, so T(x) = 0
            zero = chains[1]
            assert not transfer_T(zero, 1.7, ctx).mat.any()
            assert not any(c.mat.any() for c in transfer_pencil(zero, ctx).coeffs)
            assert not transfer.transfer_apply(zero, xs, ctx, rows).any()

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_sector_blocks_L3(self, N, rng):
        ctx = make_context(N)
        chain = draw_chain(rng, 3)
        T2 = t2_formula_L3(chain, ctx)
        T0 = Operator(dense_even_coeffs(chain, ctx)[0], N, 3)
        for l in range(N):
            basis = sector_basis(ctx, 3, l)
            blocks = sector_pencil(chain, ctx, l)
            assert blocks.shape == (2, N * N, N * N)
            for got, op in zip(blocks, (T0, T2)):
                want = sector_project(op, basis)
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("N", [3, 5, 7, 9])
    def test_stacked_sectors_equal_each_sector(self, N, L, rng):
        # one call over np.arange(N) gives each single-sector call exactly;
        # at N = 9, L = 4 the pencil stack would hold 230 MB, so only its
        # tables are compared there
        ctx, ls = make_context(N), np.arange(N)
        a, b, _ = path_table(L)
        chain = draw_chain(rng, L)
        perms, phases = sector_monomial(ctx, ls, a, b)
        orbit, amps = sector_orbits(ctx, L, ls)
        blocks = sector_pencil(chain, ctx, ls) if N ** L < 9 ** 4 else None
        assert perms.shape == (2 ** L, N ** (L - 1))
        assert phases.shape == (N, 2 ** L, N ** (L - 1))
        for l in ls:
            perm, phase = sector_monomial(ctx, l, a, b)
            assert np.array_equal(perms, perm)
            assert np.array_equal(phases[l], phase)
            assert np.array_equal(amps[l], sector_orbits(ctx, L, l)[1])
            if blocks is not None:
                assert np.array_equal(blocks[l], sector_pencil(chain, ctx, l))

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_sector_blocks_small_L(self, N, L, rng):
        ctx = make_context(N)
        chain = draw_chain(rng, L)
        coeffs = dense_even_coeffs(chain, ctx)
        for l in range(N):
            basis = sector_basis(ctx, L, l)
            blocks = sector_pencil(chain, ctx, l)
            assert blocks.shape == (len(coeffs), N ** (L - 1), N ** (L - 1))
            for got, c in zip(blocks, coeffs):
                want = sector_project(Operator(c, N, L), basis)
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("N,L", [(3, 4), (5, 4), (3, 5)])
def test_sector_blocks_large_L(N, L, rng):
    # the orbit table and the blocks read from it, against the dense oracle
    # beyond the L <= 3 the solvers reach
    ctx = make_context(N)
    for l in range(N):
        orbit, amp = sector_orbits(ctx, L, l)
        assert np.array_equal(np.bincount(orbit), np.full(N ** (L - 1), N))
        assert np.max(np.abs(np.abs(amp) - N ** -0.5)) < 1e-15
        assert sorted(orbit[:N ** (L - 1)]) == list(range(N ** (L - 1)))
    frozen = HofstadterChain3(draw_site(rng), draw_site(rng)).h0  # a = d = 0
    chain = draw_chain(rng, L)
    for chain in (chain, ChainParams((frozen,) + chain.sites[1:])):
        coeffs = dense_even_coeffs(chain, ctx)
        for l in range(N):
            basis = sector_basis(ctx, L, l)
            # the frozen site zeroes T_0, so the scale is the whole pencil's
            want = np.array([sector_project(Operator(c, N, L), basis)
                             for c in coeffs])
            got = sector_pencil(chain, ctx, l)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
