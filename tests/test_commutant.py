"""The magnetic translations S_1, S_2 on the sector orbit basis, and the
N x N reduction of the L = 3 sector blocks that they give by Schur's lemma.

The dense Weyl operators, `sector_basis`, the dense sector blocks of
`sector_pencil` with `dense_reduction` below and the brute-force eigenvalues
of `oracle_spectrum` are the oracle here; the run path reads none of them."""

import numpy as np
import pytest

from hofchain import (DegenerateChain, kron, make_context, transfer,
                      weyl_matrices)
from hofchain.bethe import cluster_eigenvalues, oracle_spectrum
from hofchain.cli import EIGVEC_GATE
from hofchain.transfer import (MAGNETIC_TRANSLATIONS, commutant_reduction,
                               sector_pencil)
from hofchain.weylcore import (sector_basis, sector_monomial, sector_project,
                               unit_draws)

from oracle import identity_op, multiset_match


def dense_reduction(block, ctx, l):
    """(R, residuals): an L = 3 sector-l block B as I_N (x) R, R of size N x N,
    read off the dense block: the reference for `commutant_reduction`.

    S_1 permutes the N^2 orbits in N cycles of length N, and S_1^N = I makes
    every cycle's phase product 1; so its eigenvalue-1 space V has one vector
    per cycle, with disjoint supports, and R = V^H B V is formed by gathers.
    residuals are max|S B - B S| / max|B| for S_1 and S_2, then
    max|B V - V R| / max|B|, as N^2 x N^2 passes over B.  A stack of K blocks
    in sectors l gives R (K, N, N) and (K, 3) residuals."""
    N, ls = ctx.N, np.atleast_1d(l)
    perms, phases = sector_monomial(ctx, ls, *zip(*MAGNETIC_TRANSLATIONS))
    perm, phase = perms[0], phases[:, 0]
    walk = [np.arange(N * N)]       # the S_1 orbit of each c, in any sector
    for _ in range(N):
        walk.append(perm[walk[-1]])
    walk = np.array(walk)
    if (walk[1:N] == walk[0]).any() or (walk[N] != walk[0]).any():
        raise ValueError("S_1 has a cycle of length other than N")
    start = walk[:N].min(axis=0) == walk[0]    # one orbit per cycle
    cycles = walk[:N, start].T                 # (cycle, step)
    turn = np.cumsum(phase[:, cycles], axis=2)     # (sector, cycle, step)
    if (turn[..., -1] % N).any():
        raise ValueError("S_1 has a cycle whose phase product is not 1")
    # V[c_k, j] = N^{-1/2} omega^(phases of the steps before k) on cycle j
    V = ctx.omega_pow(turn - phase[:, cycles]) / np.sqrt(N)
    res, R = np.empty((len(ls), 3)), np.empty((len(ls), N, N), dtype=complex)
    for s, B in enumerate(block.reshape(-1, *block.shape[-2:])):
        for i, (p, w) in enumerate(zip(perms, ctx.omega_pow(phases[s]))):
            res[s, i] = np.max(np.abs(w[:, None] * B - B[np.ix_(p, p)] * w))
        BV = np.einsum("rjk,jk->rj", B[:, cycles], V[s])[cycles]    # by cycle
        R[s] = np.einsum("ik,ikj->ij", V[s].conj(), BV)
        res[s, 2] = np.max(np.abs(BV - V[s, :, :, None] * R[s, :, None]))
        res[s] /= np.max(np.abs(B))
    return (R, res) if np.ndim(l) else (R[0], res[0])


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
    """A chain's sectors, its stacked `commutant_reduction` and the dense
    T_2 blocks of the same sectors."""
    ctx = make_context(N)
    cp = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx)
    ls = np.arange(N) if sectors is None else np.array(sectors)
    return (ctx, cp, ls, commutant_reduction(cp, ctx, ls),
            sector_pencil(cp, ctx, ls)[:, 1])


def move_a_coefficient(monkeypatch, bad):
    """Move one degree-2 path coefficient of sector bad, on one orbit, in
    every table `path_monomials` gives: to the reduction and to the dense
    blocks alike.  The block then commutes with neither S_1 nor S_2."""
    real = transfer.path_monomials

    def paths(chain, ctx, ls):
        perm, coef, degree = real(chain, ctx, ls)
        coef[ls == bad, 1, 0] += 1e-6 * np.max(np.abs(coef))
        return perm, coef, degree

    monkeypatch.setattr(transfer, "path_monomials", paths)


SIZES = [(3, None), (5, None), (7, None), (9, None), (15, (0, 1, 7))]


@pytest.mark.parametrize("N,sectors", SIZES)
def test_reduced_spectrum_matches_oracle(N, sectors, rng):
    # R and its residuals are the dense reduction of the dense block, and N
    # copies of eig R are the brute-force spectrum, each value N-fold
    ctx, cp, ls, (R, res, _), blocks = reduced(N, rng, sectors)
    for l, R_l, res_l, B in zip(ls, R, res, blocks):
        want_R, want_res = dense_reduction(B, ctx, l)
        assert np.max(np.abs(R_l - want_R)) <= 1e-14 * np.max(np.abs(R_l)), l
        assert np.max(np.abs(res_l - want_res)) <= 1e-14, (l, res_l)
        assert len(R_l) == N and max(res_l) <= 1e-13, (l, res_l)
        spec = oracle_spectrum(cp, l, ctx)
        got = np.repeat(np.linalg.eigvals(R_l), N)
        assert multiset_match(got, spec) <= 1e-12 * np.max(np.abs(spec)), l
        assert [k for _, k in cluster_eigenvalues(spec)] == [N] * N, l


@pytest.mark.parametrize("N,sectors", SIZES)
def test_lift_is_a_left_eigenvector_of_the_dense_block(N, sectors, rng):
    # for every eigenvalue of every R_l, not only the dominant one
    ctx, cp, ls, (R, _, lift), blocks = reduced(N, rng, sectors)
    lam, U = np.linalg.eig(R.transpose(0, 2, 1))
    scale = np.max(np.abs(blocks), axis=(1, 2))
    for k in range(N):
        phi, ratio = lift(lam[:, k], U[:, :, k])
        assert np.allclose(np.linalg.norm(phi, axis=1), 1, rtol=0, atol=1e-14)
        want = np.linalg.norm(np.einsum("sji,sj->si", blocks, phi)
                              - lam[:, k, None] * phi, axis=1) / scale
        assert np.all(want <= EIGVEC_GATE), (k, want)
        assert np.max(np.abs(ratio - want)) <= 1e-14, (k, ratio, want)


def test_block_is_identity_times_r(rng):
    # in the basis of the N S_1-eigenspaces, B = I_N (x) R: the orthonormal
    # eigenvectors of S_1, ordered by eigenvalue, make B block diagonal with
    # N blocks unitarily equivalent to R
    ctx, cp, ls, (R, _, _), pencil = reduced(5, rng)
    for l, R_l, B in zip(ls, R, pencil):
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
                                  np.linalg.eigvals(R_l)) \
                < 1e-12 * np.max(np.abs(B))


def test_non_commuting_block_shows_in_the_residuals(rng, monkeypatch):
    # in its own sector's S_1 and S_2 residuals and in no other sector's,
    # as the dense reduction of the moved blocks shows it
    ctx, ls, bad = make_context(5), np.arange(5), 2
    cp = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx)
    move_a_coefficient(monkeypatch, bad)
    _, res, _ = commutant_reduction(cp, ctx, ls)
    assert all(1e-8 < r < 1e-5 for r in res[bad, :2]) and res[bad, 2] < 1e-5
    assert np.max(np.delete(res, bad, axis=0)) <= 1e-13
    _, want = dense_reduction(sector_pencil(cp, ctx, ls)[:, 1], ctx, ls)
    assert np.max(np.abs(res - want)) <= 1e-14


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_stacked_reduction_equals_each_block(N, rng, monkeypatch):
    # one call over all N sectors gives each sector's call exactly, its
    # lift too, and a sector whose block commutes with neither S_1 nor S_2
    # shows in its row alone
    ctx, ls, bad = make_context(N), np.arange(N), 2
    cp = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx)
    move_a_coefficient(monkeypatch, bad)
    R, res, lift = commutant_reduction(cp, ctx, ls)
    assert R.shape == (N, N, N) and res.shape == (N, 3)
    lam, U = np.linalg.eig(R.transpose(0, 2, 1))
    phi, ratio = lift(lam[:, 0], U[:, :, 0])
    for l in ls:
        R_l, res_l, lift_l = commutant_reduction(cp, ctx, [l])
        phi_l, ratio_l = lift_l(lam[l:l + 1, 0], U[l:l + 1, :, 0])
        assert np.array_equal(R[l], R_l[0]) and np.array_equal(res[l], res_l[0])
        assert np.array_equal(phi[l], phi_l[0]) and ratio[l] == ratio_l[0]
    assert all(1e-8 < r < 1e-5 for r in res[bad, :2])
    assert np.max(np.delete(res, bad, axis=0)) <= 1e-13


def test_phase_product_is_checked_in_every_sector(monkeypatch, rng):
    # S_1^N = I in every sector: a table whose cycle phases do not multiply
    # to 1 in one sector of the stack is refused
    ctx, ls = make_context(5), np.arange(5)
    cp = DegenerateChain(tuple(unit_draws(rng, 3))).site_params(ctx)
    real = transfer.sector_monomial

    def broken(ctx, l, a, b):
        perm, phase = real(ctx, l, a, b)
        phase[3, 0, 0] += 1
        return perm, phase

    monkeypatch.setattr(transfer, "sector_monomial", broken)
    with pytest.raises(ValueError, match="phase product is not 1"):
        commutant_reduction(cp, ctx, ls)


def test_translations_commute_with_every_path_monomial():
    # the path (i_0, i_1, i_2) of T(x) is a scalar times (x)_j X^[i_j = 0]
    # Z^[i_(j+1) = 0]; two Weyl monomials commute iff their symplectic form
    # sum_j (a_j b'_j - b_j a'_j) is 0 mod N, and here it is 0 for every N
    paths = np.indices((2,) * 3).reshape(3, -1).T
    a, b = (paths == 0).astype(int), (np.roll(paths, -1, axis=1) == 0).astype(int)
    for sa, sb in MAGNETIC_TRANSLATIONS:
        assert not np.any(a @ np.array(sb) - b @ np.array(sa))
