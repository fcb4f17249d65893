"""The magnetic translations S_1, S_2 on the sector orbit basis, and the
N x N reduction of the L = 3 sector blocks that they give by Schur's lemma.

The dense Weyl operators, `sector_basis` and the brute-force eigenvalues of
`oracle_spectrum` are the oracle here; the run path reads none of them."""

import numpy as np
import pytest

from hofchain import (DegenerateChain, kron, make_context, transfer,
                      weyl_matrices)
from hofchain.bethe import cluster_eigenvalues, multiset_match, oracle_spectrum
from hofchain.transfer import (MAGNETIC_TRANSLATIONS, commutant_reduction,
                               sector_pencil)
from hofchain.weylcore import (identity_op, sector_basis, sector_monomial,
                               sector_project, unit_draws)


def dense_translations(ctx):
    w, I = weyl_matrices(ctx), identity_op(ctx)
    return kron([w["X"], w["Z"], I]), kron([I, w["X"], w["Z"]])


def table_matrix(ctx, perm, phase):
    S = np.zeros((len(perm), len(perm)), dtype=complex)
    S[perm, np.arange(len(perm))] = ctx.omega_pow(phase)
    return S


@pytest.mark.parametrize("P", [1, 2])
@pytest.mark.parametrize("N", [3, 5, 7])
def test_tables_match_dense_projection(N, P):
    ctx = make_context(N, P)
    for l in range(N):
        basis = sector_basis(ctx, 3, l)
        stacked = zip(*sector_monomial(ctx, l, *zip(*MAGNETIC_TRANSLATIONS)))
        for S, (a, b), row in zip(dense_translations(ctx),
                                  MAGNETIC_TRANSLATIONS, stacked):
            want = sector_project(S, basis)
            for table in (sector_monomial(ctx, l, a, b), row):
                got = table_matrix(ctx, *table)
                assert np.max(np.abs(got - want)) < 1e-14, (l, a, b)


@pytest.mark.parametrize("P", [1, 2])
@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_heisenberg_relation_is_exact(N, P):
    # (S_1 S_2) B_c = omega^(p2[c] + p1[pi2 c]) B_(pi1 pi2 c): the same
    # permutation either way round, and exponents one apart mod N
    ctx = make_context(N, P)
    for l in range(N):
        single = [sector_monomial(ctx, l, a, b)
                  for a, b in MAGNETIC_TRANSLATIONS]
        stacked = zip(*sector_monomial(ctx, l, *zip(*MAGNETIC_TRANSLATIONS)))
        for (pi1, p1), (pi2, p2) in (single, stacked):
            assert np.array_equal(pi1[pi2], pi2[pi1])
            assert np.all((p2 + p1[pi2] - p1 - p2[pi1]) % N == 1)


def test_monomial_off_the_commutant_is_refused():
    with pytest.raises(ValueError, match="does not commute with D"):
        sector_monomial(make_context(5), 0, (1, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="does not commute with D"):
        sector_monomial(make_context(5), 0, ((1, 0, 0), (0, 1, 0)),
                        ((0, 1, 0), (0, 0, 0)))


def reduced(N, rng, sectors=None):
    ctx = make_context(N)
    cp = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx)
    for l in range(N) if sectors is None else sectors:
        R, res = commutant_reduction(sector_pencil(cp, ctx, l)[1], ctx, l)
        yield ctx, cp, l, R, res


@pytest.mark.parametrize("N,sectors", [(3, None), (5, None), (7, None),
                                       (9, None), (15, (0, 1, 7))])
def test_reduced_spectrum_matches_oracle(N, sectors, rng):
    for ctx, cp, l, R, res in reduced(N, rng, sectors):
        assert len(R) == N and max(res) <= 1e-13, (l, res)
        spec = oracle_spectrum(cp, l, ctx)
        got = np.repeat(np.linalg.eigvals(R), N)
        assert multiset_match(got, spec) <= 1e-12 * np.max(np.abs(spec)), l
        assert [k for _, k in cluster_eigenvalues(spec)] == [N] * N, l


def test_block_is_identity_times_r(rng):
    # in the basis of the N S_1-eigenspaces, B = I_N (x) R: the orthonormal
    # eigenvectors of S_1, ordered by eigenvalue, make B block diagonal with
    # N blocks unitarily equivalent to R
    for ctx, cp, l, R, res in reduced(5, rng):
        B = sector_pencil(cp, ctx, l)[1]
        S1 = table_matrix(ctx, *sector_monomial(ctx, l,
                                                *MAGNETIC_TRANSLATIONS[0]))
        evals, U = np.linalg.eig(S1)
        order = np.argsort(np.round(np.angle(evals), 8))
        U = np.linalg.qr(U[:, order])[0]
        blocks = (U.conj().T @ B @ U).reshape(5, 5, 5, 5)
        off = blocks.copy()
        off[np.arange(5), :, np.arange(5)] = 0
        assert np.max(np.abs(off)) < 1e-13 * np.max(np.abs(B))
        for k in range(5):
            assert multiset_match(np.linalg.eigvals(blocks[k, :, k]),
                                  np.linalg.eigvals(R)) \
                < 1e-12 * np.max(np.abs(B))


def test_non_commuting_block_shows_in_the_residuals(rng):
    ctx = make_context(5)
    cp = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx)
    B = sector_pencil(cp, ctx, 2)[1]
    B[0, 1] += 1e-6 * np.max(np.abs(B))
    _, res = commutant_reduction(B, ctx, 2)
    assert all(1e-8 < r < 1e-5 for r in res[:2]) and res[2] < 1e-5


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_stacked_reduction_equals_each_block(N, rng):
    # one call over all N sector blocks gives each block's call exactly, and
    # a block that commutes with neither S_1 nor S_2 shows in its row alone
    ctx, ls, bad = make_context(N), np.arange(N), 2
    cp = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx)
    B = sector_pencil(cp, ctx, ls)[:, 1]
    B[bad, 0, 1] += 1e-6 * np.max(np.abs(B[bad]))
    R, res = commutant_reduction(B, ctx, ls)
    assert R.shape == (N, N, N) and res.shape == (N, 3)
    for l in ls:
        R_l, res_l = commutant_reduction(B[l], ctx, l)
        assert np.array_equal(R[l], R_l) and np.array_equal(res[l], res_l)
    assert all(1e-8 < r < 1e-5 for r in res[bad, :2])
    assert np.max(np.delete(res, bad, axis=0)) <= 1e-13


def test_phase_product_is_checked_in_every_sector(monkeypatch):
    # S_1^N = I in every sector: a table whose cycle phases do not multiply
    # to 1 in one sector of the stack is refused
    ctx, ls = make_context(5), np.arange(5)
    real = transfer.sector_monomial

    def broken(ctx, l, a, b):
        perm, phase = real(ctx, l, a, b)
        phase[3, 0, 0] += 1
        return perm, phase

    monkeypatch.setattr(transfer, "sector_monomial", broken)
    with pytest.raises(ValueError, match="phase product is not 1"):
        commutant_reduction(np.ones((5, 25, 25)), ctx, ls)


def test_translations_commute_with_every_path_monomial():
    # the path (i_0, i_1, i_2) of T(x) is a scalar times (x)_j X^[i_j = 0]
    # Z^[i_(j+1) = 0]; two Weyl monomials commute iff their symplectic form
    # sum_j (a_j b'_j - b_j a'_j) is 0 mod N, and here it is 0 for every N
    paths = np.indices((2,) * 3).reshape(3, -1).T
    a, b = (paths == 0).astype(int), (np.roll(paths, -1, axis=1) == 0).astype(int)
    for sa, sb in MAGNETIC_TRANSLATIONS:
        assert not np.any(a @ np.array(sb) - b @ np.array(sa))
