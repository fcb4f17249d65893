"""Error-contract coverage: invalid inputs fail loudly and early."""

import numpy as np
import pytest

from hofchain import (ChainParams, DegenerateChain, SiteParams, baxter_vector,
                      delta_pm, kron, make_context, matrix_A, pochhammer,
                      sector_basis, solve_L1, solve_L2, solve_L3,
                      t_action_residual, theorem1_residual, weyl_matrices)
from hofchain.cli import main
from hofchain.transfer import commutant_reduction
from hofchain.weylcore import Operator, sector_orbits


def test_all_zero_site_rejected():
    with pytest.raises(ValueError):
        SiteParams(0, 0, 0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, np.inf)])
@pytest.mark.parametrize("i", range(4))
def test_non_finite_site_parameter_rejected(bad, i):
    # named by its field, before rll_residual or commutator_residual reads NaN
    values = [0.5, 1j, 1.0, 2.0]
    values[i] = bad
    with pytest.raises(ValueError, match=rf"^{'abcd'[i]} must be finite"):
        SiteParams(*values)


def test_empty_chain_rejected():
    with pytest.raises(ValueError):
        ChainParams(())


def test_zero_degenerate_parameter_rejected():
    with pytest.raises(ValueError):
        DegenerateChain((1.0, 0.0, 2.0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf)])
def test_non_finite_degenerate_parameter_rejected(bad):
    # named by its site, as a zero c_j is refused, before any caller runs
    with pytest.raises(ValueError, match=r"^c_1 must be finite"):
        DegenerateChain((1j, bad, 1.0))


def test_non_finite_parameter_refused_by_both_callers():
    # an infinite c_j would make t_action_residual NaN and matrix_A's
    # eigensolve raise numpy's LinAlgError: the chain refuses it first
    ctx = make_context(5)
    c = (1j, np.inf, 1.0)
    with pytest.raises(ValueError, match=r"^c_1 must be finite"):
        t_action_residual(DegenerateChain(c), 0.3, 1, ctx)
    with pytest.raises(ValueError, match=r"^c_1 must be finite"):
        solve_L3(1, c, ctx)
    with pytest.raises(ValueError, match=r"^c_1 must be finite"):
        matrix_A(1, c, ctx)


@pytest.mark.parametrize("solve, args, name", [
    (solve_L3, (1.5, (1j, 0.5, 1.0)), "m"),
    (solve_L3, (np.float64(1.0), (1j, 0.5, 1.0)), "m"),
    (solve_L3, (True, (1j, 0.5, 1.0)), "m"),
    (solve_L1, (1.5, 1.0), "m"),
    (solve_L2, (1.0, 1, 1.0, 2.0), "m"),
    (solve_L2, (1, 0.5, 1.0, 2.0), "m'"),
    (matrix_A, (1.5, (1j, 0.5, 1.0)), "m"),
    *[row for u in (np.uint8(1), np.uint64(1)) for row in [
        (solve_L1, (u, 0.7), "m"), (solve_L2, (u, 1, 1.0, 2.0), "m"),
        (solve_L2, (1, u, 1.0, 2.0), "m'"),
        (solve_L3, (u, (1j, 0.5, 1.0)), "m"),
        (matrix_A, (u, (1j, 0.5, 1.0)), "m")]],
])
def test_non_integer_sector_rejected(solve, args, name):
    # refused by name before q_pow's indexing can raise IndexError or
    # TypeError, and before q_pow(-m) negates an unsigned m, which wraps mod
    # 2^bits: uint8 1 read Q's x coefficient 0.35000000000000003 for 0.35
    with pytest.raises(ValueError, match=f"^sector {name} must be an integer"):
        solve(*args, make_context(5))


@pytest.mark.parametrize("l", [2.5, -0.5, 1.5, 1.0, True, np.array([True, False]),
                               np.array([0.0, 1.0]), np.arange(2, dtype=np.uint8)])
@pytest.mark.parametrize("check", [
    lambda l, chain, ctx: baxter_vector(0.7, l, chain, ctx),
    lambda l, chain, ctx: t_action_residual(chain, 0.7, l, ctx),
    lambda l, chain, ctx: theorem1_residual(chain, 0.7, l, ctx),
    lambda l, chain, ctx: delta_pm(0.7, l, 1, chain, ctx),
    lambda l, chain, ctx: sector_orbits(ctx, 3, l),
    lambda l, chain, ctx: sector_basis(ctx, 3, l),
    lambda l, chain, ctx: commutant_reduction(chain.site_params(ctx), ctx, l),
], ids=["baxter_vector", "t_action_residual", "theorem1_residual", "delta_pm",
        "sector_orbits", "sector_basis", "commutant_reduction"])
def test_non_integer_label_rejected(check, l):
    # int(2.5) would run the l = 2 vector, 1.5 or a bool array would reach
    # numpy's IndexError or TypeError, True ran sector 1, and an unsigned -l
    # wraps mod 256, not mod N: refused by name first
    chain = DegenerateChain((0.7, 1.1, 0.9))
    with pytest.raises(ValueError, match="^sector l must be an integer"):
        check(l, chain, make_context(5))


def test_integer_labels_accepted():
    ctx, chain = make_context(5), DegenerateChain((0.7, 1.1, 0.9))
    assert np.array_equal(baxter_vector(0.7, np.int64(2), chain, ctx),
                          baxter_vector(0.7, 2, chain, ctx))
    assert theorem1_residual(chain, 0.7, np.arange(5, dtype=np.int8), ctx) \
        == theorem1_residual(chain, 0.7, np.arange(5), ctx)


@pytest.mark.parametrize("m", [3, -1])
def test_matrix_A_refuses_a_sector_outside_range(m):
    # A(3) = A(2) and A(-1) = A(1) at N = 5: m out of range names another sector
    with pytest.raises(ValueError,
                       match=rf"^sector m must be in \[0, 2\], got {m}$"):
        matrix_A(m, (1j, 0.5, 1.0), make_context(5))


def test_numpy_integer_sector_accepted():
    ctx = make_context(5)
    c = (1j, 0.5, 1.0)
    assert solve_L3(np.int64(1), c, ctx)[0].Q == solve_L3(1, c, ctx)[0].Q
    assert np.array_equal(matrix_A(np.int32(2), c, ctx), matrix_A(2, c, ctx))


@pytest.mark.parametrize("N, P, name", [
    (np.uint8(5), 1, "N"), (5.0, 1, "N"), (True, 1, "N"),
    (5, np.uint64(2), "P"), (5, 2.0, "P"), (5, True, "P")])
def test_non_integer_context_rejected(N, P, name):
    # math.gcd raised TypeError on a float and took a bool or an unsigned
    # integer, and bool N read as 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make_context(N, P)


@pytest.mark.parametrize("n", [1.5, 2.0, True, np.uint8(2),
                               np.array([1.0, 2.0])])
def test_non_integer_pochhammer_order_rejected(n):
    with pytest.raises(ValueError,
                       match="^pochhammer order must be an integer"):
        pochhammer(0.5, 0.3, n)


def test_integer_orders_and_labels_accepted():
    ctx = make_context(5)
    assert pochhammer(0.5, 0.3, np.int8(2)) == pochhammer(0.5, 0.3, 2)
    assert np.array_equal(sector_basis(ctx, 2, np.int32(3)),
                          sector_basis(ctx, 2, 3))


def test_kron_empty_rejected():
    with pytest.raises(ValueError):
        kron([])


def test_operator_shape_validated():
    with pytest.raises(ValueError):
        Operator(np.eye(4), 3, 1)


def test_operator_tag_mismatch_on_add():
    ctx3 = make_context(3)
    ctx5 = make_context(5)
    with pytest.raises(Exception):
        _ = weyl_matrices(ctx3)["X"] + weyl_matrices(ctx5)["X"]


def test_solve_L2_sector_bounds():
    ctx = make_context(3)
    with pytest.raises(ValueError):
        solve_L2(0, 5, 1.0, 1.0, ctx)
    with pytest.raises(ValueError):
        solve_L2(-1, 0, 1.0, 1.0, ctx)


def test_verify_fails_with_impossible_tolerance(tmp_path, capsys):
    out = tmp_path / "v.json"
    rc = main(["verify", "--N", "3", "--tol", "rll=1e-20", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "rll" in err  # the failing invariant is named

    import json
    report = json.loads(out.read_text())
    assert report["pass"] is False
    failing = [s for s in report["suites"] if not s["pass"]]
    assert failing and all(s["suite"] == "rll" for s in failing)


def test_unknown_tolerance_name_rejected(tmp_path):
    rc = main(["verify", "--N", "3", "--tol", "nope=1e-3",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_malformed_tolerance_rejected(tmp_path):
    rc = main(["verify", "--N", "3", "--tol", "rll",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
