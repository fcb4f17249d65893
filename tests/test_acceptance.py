"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here exactly as stated; runtime limits are
asserted alongside the numerical checks.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from hofchain import (ChainParams, DegenerateChain, HofstadterChain3,
                      SiteParams, bethe_ansatz_residuals,
                      commutator_residual, hofstadter_hamiltonian,
                      lambda_M_from_roots, make_context, matrix_A,
                      oracle_spectrum, rll_residual, sector_vectors,
                      solve_L1, solve_L2, solve_L3, t_action_residual,
                      theorem1_residual)
from hofchain.baxter import draw_regular_x, u_weight
from hofchain.bethe import cluster_eigenvalues, multiset_match
from hofchain.cli import main
from hofchain.curves import descended_t_residual, draw_w_points, epsilon_rank
from hofchain.weylcore import unit_draws

from conftest import strip_timing


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_yang_baxter():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for N in (3, 5, 7):
        ctx = make_context(N)
        for _ in range(100):
            h = SiteParams(*unit_draws(rng, 4))
            x, xp = unit_draws(rng, 2)
            worst = max(worst, rll_residual(h, x, xp, ctx))
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    report("criterion 1 (Yang-Baxter)",
           f"max residual {worst:.2e} < 1e-10 over 300 draws, {elapsed:.2f}s")


def test_criterion_02_commuting_family():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for N in (3, 5, 7):
        ctx = make_context(N)
        for L in (1, 2, 3):
            for _ in range(20):
                chain = ChainParams(tuple(SiteParams(*unit_draws(rng, 4))
                                          for _ in range(L)))
                x, xp = unit_draws(rng, 2)
                worst = max(worst, commutator_residual(chain, x, xp, ctx))
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    report("criterion 2 (commuting family)",
           f"max residual {worst:.2e} < 1e-10, {elapsed:.2f}s")


def test_criterion_03_baxter_action():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for N in (3, 5):
        ctx = make_context(N)
        chain = DegenerateChain(tuple(unit_draws(rng, 3)))
        for _ in range(10):
            x = draw_regular_x(rng, chain, ctx)
            for l in range(N):
                worst = max(worst, t_action_residual(chain, x, l, ctx))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    report("criterion 3 (Baxter action)",
           f"max residual {worst:.2e} < 1e-9, {elapsed:.2f}s")


def test_criterion_04_sector_vectors():
    rng = np.random.default_rng(104)
    worst_i = worst_ii = 0.0
    for N in (3, 5):
        ctx = make_context(N)
        chain = DegenerateChain(tuple(unit_draws(rng, 3)))
        for _ in range(10):
            x = draw_regular_x(rng, chain, ctx)
            for l in range(N):
                vecs = sector_vectors(x, l, chain, ctx)
                ident = vecs["e_vec"] * u_weight(ctx.q_pow(1) * x, chain, ctx) \
                    - vecs["o_vec"] * ctx.q_pow(l) * u_weight(x, chain, ctx)
                scale = max(1.0, float(np.max(np.abs(vecs["plus_vec"]))))
                worst_i = max(worst_i, float(np.max(np.abs(ident))) / scale)
                worst_ii = max(worst_ii, theorem1_residual(chain, x, l, ctx))
    assert worst_i < 1e-9
    assert worst_ii < 1e-9
    report("criterion 4 (sector-vector identities)",
           f"identity (i) {worst_i:.2e}, (i) and (ii) {worst_ii:.2e} < 1e-9")


def test_criterion_05_single_site():
    rng = np.random.default_rng(105)
    worst = 0.0
    for N in (3, 5, 7):
        ctx = make_context(N)
        c0 = unit_draws(rng, 1)[0]
        for m in range(ctx.M + 1):
            worst = max(worst, solve_L1(m, c0, ctx).rbeq_residual)
    assert worst < 1e-10
    report("criterion 5 (single-site closed form)", f"max residual {worst:.2e} < 1e-10")


def test_criterion_06_two_site():
    rng = np.random.default_rng(106)
    worst_res = 0.0
    worst_match = 0.0
    for N in (3, 5):
        ctx = make_context(N)
        c0, c1 = unit_draws(rng, 2)
        chain = DegenerateChain((c0, c1)).site_params(ctx)
        lam_set = np.array([ctx.q_half_pow(1) * (ctx.q_pow(mp - 1)
                                                 + ctx.q_pow(-mp - 2)) * c0 * c1
                            for mp in range(ctx.M + 1)])
        for m in range(ctx.M + 1):
            for mp in range(ctx.M + 1):
                sol = solve_L2(m, mp, c0, c1, ctx)
                assert sol.Q.degree == ctx.M - m + mp
                worst_res = max(worst_res, sol.rbeq_residual)
            for l, scale in (((2 * m) % N, ctx.q_pow(-m)),
                             ((-2 * m) % N, ctx.q_pow(m))):
                spec = scale * oracle_spectrum(chain, l, ctx)
                dist = np.abs(spec[:, None] - lam_set[None, :])
                worst_match = max(worst_match, float(dist.min(axis=1).max()))
                assert set(dist.argmin(axis=1)) == set(range(ctx.M + 1))
    assert worst_res < 1e-9
    assert worst_match < 1e-8
    report("criterion 6 (two-site solutions)",
           f"residual {worst_res:.2e} < 1e-9, oracle match {worst_match:.2e} < 1e-8")


def test_criterion_07_three_site():
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst_match = worst_res = 0.0
    for N in (3, 5, 7):
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        chain = DegenerateChain(tuple(c)).site_params(ctx)
        for m in range(ctx.M + 1):
            sols = solve_L3(m, c, ctx)
            assert len(sols) == N
            for sol in sols:
                assert sol.Q.degree == 3 * ctx.M - m
                assert sol.Q.coeffs[0] == 1.0
                worst_res = max(worst_res, sol.rbeq_residual)
            lams = [sol.lam for sol in sols]
            spec = ctx.q_pow(-m) * oracle_spectrum(chain, (2 * m) % N, ctx)
            clusters = cluster_eigenvalues(spec)
            assert all(k == N for _, k in clusters)
            worst_match = max(worst_match,
                              multiset_match(lams, [v for v, _ in clusters]))
    elapsed = time.time() - t0
    assert worst_match < 1e-8
    assert worst_res < 1e-8
    assert elapsed < 60.0
    report("criterion 7 (three-site eigenvalue condition)",
           f"eigenvalue match {worst_match:.2e} < 1e-8, multiplicity N, "
           f"rbeq {worst_res:.2e} < 1e-8, {elapsed:.2f}s")


def test_criterion_08_bethe_ansatz():
    rng = np.random.default_rng(108)
    worst_root = worst_lam = 0.0
    for N in (3, 5, 7):
        ctx = make_context(N)
        c = unit_draws(rng, 3)
        for m in range(ctx.M + 1):
            for sol in solve_L3(m, c, ctx):
                worst_root = max(worst_root,
                                 max(bethe_ansatz_residuals(sol, c, ctx)))
                if m == ctx.M:
                    lam = lambda_M_from_roots(sol.roots, c, ctx)
                    worst_lam = max(worst_lam, abs(lam - sol.lam))
    assert worst_root < 1e-6
    assert worst_lam < 1e-8, (
        "lambda_M reconstruction disagrees with the eigensolve; "
        "the elementary-symmetric reading of s_1/s_2 would be falsified")
    report("criterion 8 (Bethe ansatz)",
           f"root relation {worst_root:.2e} < 1e-6, "
           f"lambda_M reconstruction {worst_lam:.2e} < 1e-8 "
           "(s_1/s_2 = elementary symmetric polynomials validated)")


def test_criterion_09_curve_rank_and_descent():
    t0 = time.time()
    rng = np.random.default_rng(109)
    ctx = make_context(3)
    chain = HofstadterChain3(SiteParams(*unit_draws(rng, 4)),
                             SiteParams(*unit_draws(rng, 4)))
    rank_pts = draw_w_points(chain, ctx, rng, 2 * 9)
    ranks = {l: epsilon_rank(l, *rank_pts, chain, ctx) for l in range(3)}
    assert all(r == 9 for r in ranks.values())
    descent_pts = np.concatenate([rank_pts, draw_w_points(chain, ctx, rng, 6)],
                                 axis=1)
    assert descent_pts.shape[1] >= 20
    worst = max(descended_t_residual(chain, *p, ctx) for p in descent_pts.T)
    elapsed = time.time() - t0
    assert worst < 1e-8
    assert elapsed < 30.0
    report("criterion 9 (evaluation rank and descent)",
           f"ranks {sorted(ranks.values())} == [9, 9, 9] with {rank_pts.shape[1]} "
           f"points, descended residual {worst:.2e} < 1e-8 on "
           f"{descent_pts.shape[1]} points, {elapsed:.2f}s")


def test_criterion_10_butterfly_sanity():
    t0 = time.time()
    worst_im = worst_tr = worst_conj = 0.0
    for N in range(3, 32, 2):
        specs = {}
        for P in range(1, N):
            if np.gcd(P, N) != 1:
                continue
            ctx = make_context(N, P)
            H = hofstadter_hamiltonian(ctx, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0).mat
            evals = np.linalg.eigvals(H)
            worst_im = max(worst_im, float(np.max(np.abs(evals.imag))))
            worst_tr = max(worst_tr, abs(evals.sum()))
            specs[P] = np.sort(evals.real)
        for P in specs:
            worst_conj = max(worst_conj,
                             float(np.max(np.abs(specs[P] - specs[N - P]))))
    elapsed = time.time() - t0
    assert worst_im < 1e-10
    assert worst_tr < 1e-9
    assert worst_conj < 1e-9
    assert elapsed < 20.0
    report("criterion 10 (butterfly sanity)",
           f"|Im| {worst_im:.2e} < 1e-10, |trace| {worst_tr:.2e} < 1e-9, "
           f"conjugate-flux {worst_conj:.2e} < 1e-9, N <= 31, {elapsed:.2f}s")


def test_criterion_11_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["solve", "--N", "3", "--L", "3", "--m", "all", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ra = strip_timing(json.loads(a.read_text()))
    rb = strip_timing(json.loads(b.read_text()))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    report("criterion 11 (determinism)",
           "identical numerical content across repeated runs")
