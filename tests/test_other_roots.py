"""Key identities at root exponents P != 1 (no hidden P = 1 assumptions)."""

import numpy as np
import pytest

from hofchain import (DegenerateChain, make_context,
                      oracle_spectrum, solve_L1, solve_L3, t_action_residual,
                      theorem1_residual)
from hofchain.baxter import draw_regular_x
from hofchain.bethe import cluster_eigenvalues
from hofchain.weylcore import unit_draws

from oracle import multiset_match


@pytest.mark.parametrize("N,P", [(5, 2), (5, 3), (7, 3), (9, 4)])
def test_baxter_action_other_roots(N, P, rng):
    ctx = make_context(N, P)
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    x = draw_regular_x(rng, chain, ctx)
    for l in range(0, N, 2):
        assert t_action_residual(chain, x, l, ctx) < 1e-9


@pytest.mark.parametrize("N,P", [(5, 2), (7, 5)])
def test_theorem1_ii_other_roots(N, P, rng):
    ctx = make_context(N, P)
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    x = draw_regular_x(rng, chain, ctx)
    for l in (0, 1, N - 1):
        assert theorem1_residual(chain, x, l, ctx) < 1e-9


@pytest.mark.parametrize("N,P", [(5, 2), (7, 3)])
def test_solve_L1_other_roots(N, P, rng):
    ctx = make_context(N, P)
    c0 = unit_draws(rng, 1)[0]
    for m in range(ctx.M + 1):
        assert solve_L1(m, c0, ctx).rbeq_residual < 1e-10


@pytest.mark.parametrize("N,P", [(5, 2), (5, 4), (9, 2)])
def test_solve_L3_oracle_other_roots(N, P, rng):
    # N = 9 also covers composite odd N: only primitivity of omega matters
    ctx = make_context(N, P)
    c = unit_draws(rng, 3)
    chain = DegenerateChain(tuple(c)).site_params(ctx)
    for m in (0, ctx.M):
        lams = [sol.lam for sol in solve_L3(m, c, ctx)]
        spec = ctx.q_pow(-m) * oracle_spectrum(chain, (2 * m) % N, ctx)
        clusters = cluster_eigenvalues(spec)
        assert all(k == N for _, k in clusters)
        assert multiset_match(lams, [v for v, _ in clusters]) < 1e-8
