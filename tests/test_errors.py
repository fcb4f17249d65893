"""Error-contract coverage: invalid inputs fail loudly and early."""

import numpy as np
import pytest

from hofchain import (ChainParams, DegenerateChain, SiteParams, kron,
                      make_context, matrix_A, solve_L1, solve_L2, solve_L3,
                      t_action_residual, weyl_matrices)
from hofchain.cli import main
from hofchain.weylcore import Operator


def test_all_zero_site_rejected():
    with pytest.raises(ValueError):
        SiteParams(0, 0, 0, 0)


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
])
def test_non_integer_sector_rejected(solve, args, name):
    # refused by name before q_pow's indexing can raise IndexError or TypeError
    with pytest.raises(ValueError, match=f"^sector {name} must be an integer"):
        solve(*args, make_context(5))


def test_numpy_integer_sector_accepted():
    ctx = make_context(5)
    c = (1j, 0.5, 1.0)
    assert solve_L3(np.int64(1), c, ctx)[0].Q == solve_L3(1, c, ctx)[0].Q
    assert np.array_equal(matrix_A(np.int32(2), c, ctx), matrix_A(2, c, ctx))


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
