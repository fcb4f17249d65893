import argparse
import csv
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hofchain import (DegenerateChain, PoleError, __version__, make_context,
                      transfer_T)
from hofchain import cli, transfer, weylcore
from hofchain.cli import main
from hofchain.weylcore import GenericityError, Operator

from conftest import draw_chain, strip_timing


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def one_ulp(block, entry, up):
    """Move the real part of block[entry] by one ulp, up or down."""
    z = block[entry]
    block[entry] = complex(np.nextafter(z.real, np.inf if up else -np.inf),
                           z.imag)


def patch_paths(monkeypatch, change):
    """Give every `commutant_reduction` the path tables of
    `transfer.path_monomials` after change(coef_row, l, call) edits the
    coefficients of sector l in place; returns the sector lists called."""
    real, calls = transfer.path_monomials, []

    def paths(chain, ctx, ls):
        calls.append(list(ls))
        perm, coef, degree = real(chain, ctx, ls)
        for i, l in enumerate(ls):
            change(coef[i], l, len(calls))
        return perm, coef, degree

    monkeypatch.setattr(transfer, "path_monomials", paths)
    return calls


class TestVerify:
    def test_n3_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--N", "3", "--out", str(out)])
        assert rc == 0
        report = read_json(out)
        assert report["pass"] is True
        assert report["meta"]["tool_version"]
        assert report["meta"]["seed"] == 20240001
        names = {s["suite"] for s in report["suites"]}
        assert names == {"rll", "commutator", "baxter_action", "theorem1",
                         "divisibility", "degeneracy"}
        for s in report["suites"]:
            assert s["max_residual"] < s["tolerance"]

    def test_n9_composite_odd(self, tmp_path):
        # 9 is odd but not prime; only gcd(P, 9) = 1 is required
        out = tmp_path / "verify9.json"
        rc = main(["verify", "--N", "9", "--P", "2", "--out", str(out)])
        assert rc == 0
        rc = main(["verify", "--N", "9", "--P", "3", "--out", str(out)])
        assert rc == 2  # gcd(3, 9) != 1

    def test_negative_tolerance_rejected(self, tmp_path):
        out = tmp_path / "x.json"
        rc = main(["verify", "--N", "3", "--tol", "rll=-1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_even_N_rejected(self, tmp_path):
        rc = main(["verify", "--N", "4", "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestVerifyReport:
    SUITES = {"rll", "commutator", "baxter_action", "theorem1",
              "divisibility", "degeneracy"}

    def test_suite_error_is_recorded(self, tmp_path, monkeypatch, capsys):
        def pole(ctx, rng):
            raise PoleError("forced pole")

        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            (name, pole if name == "theorem1" else fn)
            for name, fn in cli.VERIFY_SUITES])
        out = tmp_path / "verify.json"
        rc = main(["verify", "--N", "3", "--N", "5", "--out", str(out)])
        assert rc == 1
        assert "PoleError" in capsys.readouterr().err
        report = read_json(out)
        assert report["pass"] is False
        assert [(s["N"], s["suite"]) for s in report["suites"]] == \
            [(N, name) for N in (3, 5) for name, _ in cli.VERIFY_SUITES]
        for s in report["suites"]:
            if s["suite"] == "theorem1":
                assert s["error"] == {"class": "PoleError",
                                      "message": "forced pole"}
                assert s["max_residual"] is None and s["pass"] is False
            else:
                assert "error" not in s and s["pass"] is True

    def test_suite_timing_fields(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "3", "--out", str(out)]) == 0
        report = read_json(out)
        assert {s["suite"] for s in report["suites"]} == self.SUITES
        for s in report["suites"]:
            assert s["wall_s"] >= 0
            assert s["peak_rss_mb"] > 0

    def test_fast_paths_build_no_chain_operator(self, tmp_path, monkeypatch,
                                                rng):
        # a silent fallback to dense N^L x N^L matrices would build Operators
        # on two or more sites; make that an error the suites cannot catch
        original = Operator.__post_init__

        def guarded(self):
            if self.sites >= 2:
                raise AssertionError("dense chain operator built")
            original(self)

        monkeypatch.setattr(Operator, "__post_init__", guarded)
        with pytest.raises(AssertionError):
            transfer_T(draw_chain(rng, 2), 1.0, make_context(3))
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            s for s in cli.VERIFY_SUITES
            if s[0] in ("baxter_action", "theorem1", "divisibility",
                        "degeneracy")])
        config = cli.RunConfig(n_list=[5], out=str(tmp_path / "v.json"))
        assert cli.cmd_verify(config) == 0
        config = cli.RunConfig(n_list=[3], out=str(tmp_path / "c.json"))
        assert cli.cmd_curves(config) == 0

    def test_run_paths_build_no_sector_basis(self, tmp_path, monkeypatch):
        # the sector blocks, the divisibility pairing and the evaluation
        # ranks read the orbit table; the dense basis is the tests' oracle
        def refuse(*args):
            raise AssertionError("dense sector basis built")

        original = weylcore.sector_basis
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hofchain" and \
                    getattr(module, "sector_basis", None) is original:
                monkeypatch.setattr(module, "sector_basis", refuse)
        with pytest.raises(AssertionError):
            transfer.sector_spectrum(Operator(np.eye(9), 3, 2),
                                     make_context(3), 2, 0)
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            s for s in cli.VERIFY_SUITES
            if s[0] in ("divisibility", "degeneracy")])
        config = cli.RunConfig(n_list=[5], out=str(tmp_path / "v.json"))
        assert cli.cmd_verify(config) == 0
        config = cli.RunConfig(n_list=[3], out=str(tmp_path / "c.json"))
        assert cli.cmd_curves(config) == 0

    def test_sector_suites_build_no_sector_block(self, tmp_path, monkeypatch):
        # degeneracy and divisibility read the path tables; the dense
        # N^2 x N^2 sector blocks are the tests' oracle
        def refuse(*args):
            raise AssertionError("dense sector block built")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hofchain" and getattr(
                    module, "sector_pencil", None) is transfer.sector_pencil:
                monkeypatch.setattr(module, "sector_pencil", refuse)
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            s for s in cli.VERIFY_SUITES
            if s[0] in ("divisibility", "degeneracy")])
        out = tmp_path / "v.json"
        assert main(["verify", "--N", "5", "--out", str(out)]) == 0
        assert [s["suite"] for s in read_json(out)["suites"]] == [
            "divisibility", "degeneracy"]


class TestDivisibility:
    """The suite's one eigenvector per sector, its gates and its residual."""

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_dominant_eigenvector_matches_eig(self, N, rng):
        ctx = make_context(N)
        cp = DegenerateChain(tuple(weylcore.unit_draws(rng, 3))).site_params(ctx)
        ls = np.arange(N)
        pencil = transfer.sector_pencil(cp, ctx, ls)
        stacked = cli.sector_left_eigenvectors(cp, ctx, ls)
        for l, (T0, T2), (mu, v, res, gap, commutant) in zip(
                ls, pencil, zip(*stacked)):
            B = T2.T
            assert len(commutant) == 3 and max(commutant) < 1e-13
            evals = np.linalg.eig(B)[0]
            want = evals[np.argmax(np.abs(evals))]
            assert abs(mu - want) <= 1e-12 * abs(want)
            assert abs(np.linalg.norm(v) - 1) < 1e-14
            assert np.linalg.norm(B @ v - mu * v) <= \
                cli.EIGVEC_GATE * np.max(np.abs(B))
            assert res <= cli.EIGVEC_GATE
            # each of the other N^2 - N eigenvalues is one of R_l's, N-fold
            others = np.sort(np.abs(evals - mu))[N:]
            assert abs(gap - others[0] / abs(mu)) <= 1e-9 * gap
            # so v is an eigenvector of the whole family: T_0 is a scalar
            assert np.max(np.abs(T0 - T0[0, 0] * np.eye(len(T0)))) < 1e-13

    @pytest.mark.parametrize("N", [5, 7, 9])
    def test_default_seed_residual(self, N, rng):
        assert cli._suite_divisibility(make_context(N), rng)[0] <= 1e-12

    @pytest.mark.parametrize("N", [5, 7, 9])
    def test_first_draw_passes(self, N):
        # the lift weighted by exp(i k^2) over the N images under conj(S_2):
        # in sector 0 a single image conj(V) u of R_l's dominant eigenvector
        # can pair to zero with |x>^+_0 and redraw; the weighted sum does not
        ctx = make_context(N)
        for seed in range(20):
            res, _ = cli._suite_divisibility(ctx, np.random.default_rng(seed))
            assert res < cli.DEFAULT_TOLERANCES["divisibility"], seed

    @pytest.mark.parametrize("target,fake,message", [
        ("sector_left_eigenvectors", None,
         "(l_sec, label) = (0, 0): left eigenvector residual 1 > gate"),
        ("plus_pairing_coeffs", lambda phi, *args: np.zeros((len(phi), 7)),
         "(l_sec, label) = (0, 0): pairing degenerated to zero"),
    ])
    def test_gate_errors_name_the_sector(self, tmp_path, monkeypatch, target,
                                         fake, message):
        real = cli.sector_left_eigenvectors

        def no_convergence(chain, ctx, ls):     # every residual above the gate
            mu, v, res, gap, commutant = real(chain, ctx, ls)
            return mu, v, np.ones_like(res), gap, commutant

        monkeypatch.setattr(cli, target, fake or no_convergence)
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            s for s in cli.VERIFY_SUITES if s[0] == "divisibility"])
        out = tmp_path / "v.json"
        assert main(["verify", "--N", "3", "--out", str(out)]) == 1
        (record,) = read_json(out)["suites"]
        assert record["error"]["class"] == "GenericityError"
        assert record["error"]["message"].startswith(message)

    def test_errors_name_the_first_failing_pair(self, monkeypatch):
        # one coefficient moved in the sectors of pairs 1 and 3 breaks the
        # commutant there, so the lift is no eigenvector of the moved block;
        # pair 3's residual is the larger, and pair 1, (2, 1), is named
        sizes = {2: 1e-6, 4: 1e-4}

        def moved(coef, l, call):
            if l in sizes:
                coef[1, 0] += sizes[l] * np.max(np.abs(coef))

        patch_paths(monkeypatch, moved)
        ctx = make_context(5)
        cp = DegenerateChain(tuple(weylcore.unit_draws(
            np.random.default_rng(1), 3))).site_params(ctx)
        ratios = cli.sector_left_eigenvectors(cp, ctx, [0, 2, 3, 4, 1])[2]
        assert np.all(ratios[[0, 2, 4]] <= cli.EIGVEC_GATE)
        assert cli.EIGVEC_GATE < ratios[1] < ratios[3]
        with pytest.raises(GenericityError, match=r"^\(l_sec, label\) = "
                           r"\(2, 1\): left eigenvector residual \S+ > gate"):
            cli._suite_divisibility(ctx, np.random.default_rng(1))

    def test_min_gap_pair_survives_one_ulp(self, monkeypatch):
        # at N = 5, seed 1, the partner pairs (4, 2) and (1, 3) have gaps
        # equal to 15 digits: np.argmin of the gaps names (4, 2), and (1, 3)
        # after either one-ulp change to a coefficient of sector 4; the field
        # names the first
        named = []
        for nudge in [None, ((1, 4), True), ((1, 8), False)]:
            def nudged(coef, l, call):
                if nudge and l == 4:
                    one_ulp(coef, *nudge)

            patch_paths(monkeypatch, nudged)
            named.append(cli._suite_divisibility(
                make_context(5), np.random.default_rng(1))[1]["min_gap_pair"])
        assert named == [[4, 2]] * 3

    def test_run_path_calls_no_eig(self, tmp_path, monkeypatch):
        # a full eigensolve of each sector block is the tests' oracle; the
        # run path's eigenvalues and eigenvectors come from the N x N
        # matrices R_l alone
        shapes = []

        def recorded(name):
            real = getattr(np.linalg, name)

            def call(a):
                shapes.append((name, a.shape))
                return real(a)
            monkeypatch.setattr(np.linalg, name, call)

        recorded("eig")
        recorded("eigvals")
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            s for s in cli.VERIFY_SUITES if s[0] == "divisibility"])
        assert main(["verify", "--N", "5", "--out",
                     str(tmp_path / "v.json")]) == 0
        # one call over the (l_sec, label) pairs: 2M + 1 matrices of N x N
        assert shapes == [("eig", (5, 5, 5))]


@pytest.mark.parametrize("N", [5, 9])
def test_one_stacked_pass_per_suite(N, monkeypatch):
    # the sector tables and the eigensolve cover every sector in one call
    # each, however many sectors: one orbit exponent table for the path
    # monomials, one for S_1 and S_2 and, in divisibility, one to scatter
    # the eigenvectors; no solve
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(weylcore, "_orbit_exponents")
    for name in ("eig", "eigvals", "solve"):
        count(np.linalg, name)
    cli._suite_degeneracy(make_context(N), np.random.default_rng(1))
    assert counts == {"_orbit_exponents": 2, "eigvals": 1}
    counts.clear()
    cli._suite_divisibility(make_context(N), np.random.default_rng(1))
    assert counts == {"_orbit_exponents": 3, "eig": 1}


def test_one_fiber_pass_per_curves_draw(tmp_path, monkeypatch):
    # N = 7 at the default seed: 2N^2 = 98 points from ceil(98 / 7) = 14
    # x-draws, every one regular, so one `_w_fibers` call; no sample_W
    from hofchain import curves
    real, shapes = curves._w_fibers, []

    def fibers(xs, *args):
        shapes.append(len(xs))
        return real(xs, *args)

    def sample_W(*args):
        raise AssertionError("sample_W called")

    monkeypatch.setattr(curves, "_w_fibers", fibers)
    monkeypatch.setattr(curves, "sample_W", sample_W)
    assert main(["curves", "--N", "7", "--out", str(tmp_path / "c.json")]) == 0
    assert shapes == [14]


def test_theorem1_builds_one_node_row_table(monkeypatch):
    # (i) and (ii) read the same Baxter rows at x, q^-1 x and q x
    from hofchain import baxter
    real, shapes = baxter._node_rows, []

    def node_rows(x, chain, ctx):
        shapes.append(x.shape)
        return real(x, chain, ctx)

    monkeypatch.setattr(baxter, "_node_rows", node_rows)
    cli._suite_theorem1(make_context(5), np.random.default_rng(20240001))
    assert shapes == [(3, 3, 1)]      # (x, q^-1 x, q x), draws, 1


@pytest.mark.parametrize("row", ["o", "plus"])
def test_each_theorem1_half_is_gated(row, tmp_path, monkeypatch):
    # a 1e-6 slip in the o weights breaks only (i); in the plus row at x
    # (not at q^-1 x or q x) it breaks only (ii)
    from hofchain import baxter
    real = baxter._plus_weights

    def weights(x, l, chain, ctx):
        out = real(x, l, chain, ctx)
        if row == "o":
            out[..., 1, :] *= 1 + 1e-6
        else:
            out[0, ..., 2, :] *= 1 + 1e-6
        return out

    monkeypatch.setattr(baxter, "_plus_weights", weights)
    monkeypatch.setattr(cli, "VERIFY_SUITES",
                        [("theorem1", cli._suite_theorem1)])
    out = tmp_path / "verify.json"
    assert main(["verify", "--N", "5", "--out", str(out)]) == 1
    (rec,) = read_json(out)["suites"]
    assert rec["pass"] is False and rec["max_residual"] > 1e-8


def test_baxter_action_is_gated(tmp_path, monkeypatch):
    # Delta_- off by 1e-6 leaves a residual of about 1e-6 (5e-15 unperturbed)
    from hofchain import baxter
    real = baxter.delta_pm

    def delta(x, l, sign, chain, ctx):
        return real(x, l, sign, chain, ctx) * (1 + 1e-6 * (sign == -1))

    monkeypatch.setattr(baxter, "delta_pm", delta)
    monkeypatch.setattr(cli, "VERIFY_SUITES",
                        [("baxter_action", cli._suite_baxter_action)])
    out = tmp_path / "verify.json"
    assert main(["verify", "--N", "3", "--N", "5", "--N", "7", "--seed", "1",
                 "--out", str(out)]) == 1
    records = read_json(out)["suites"]
    assert [rec["N"] for rec in records] == [3, 5, 7]
    for rec in records:
        assert rec["pass"] is False and rec["max_residual"] > 1e-7


def test_write_json_converts_numpy_scalars(tmp_path):
    path = tmp_path / "x.json"
    cli._write_json(path, {"n": np.int64(3), "ok": np.bool_(True)})
    got = read_json(path)
    assert got == {"n": 3, "ok": True}
    assert type(got["n"]) is int and type(got["ok"]) is bool
    with pytest.raises(TypeError, match=r"^not JSON-serializable: "
                                        r"<class 'object'>$"):
        cli._write_json(path, {"x": object()})


def test_refused_report_leaves_no_file(tmp_path):
    # the report is serialized before the file is opened: a refused value
    # writes nothing, and an existing report keeps its bytes
    path = tmp_path / "new.json"
    with pytest.raises(TypeError):
        cli._write_json(path, {"a": 1, "x": object()})
    assert not path.exists()
    path = tmp_path / "old.json"
    cli._write_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli._write_json(path, {"a": 1, "x": object()})
    assert path.read_bytes() == before


class TestSolve:
    def test_L3_n3_all_sectors(self, tmp_path):
        out = tmp_path / "solve.json"
        rc = main(["solve", "--N", "3", "--L", "3", "--m", "all",
                   "--out", str(out)])
        assert rc == 0
        report = read_json(out)
        (entry,) = report["chains"]
        assert entry["N"] == 3
        # 2 sectors (m = 0, 1) x 3 eigenvalues
        assert len(entry["solutions"]) == 6
        for rec in entry["solutions"]:
            assert rec["rbeq_residual"] < 1e-8
            assert rec["Q_coeffs"][0] == [1.0, 0.0]

    def test_L1_closed_form(self, tmp_path):
        out = tmp_path / "solve1.json"
        rc = main(["solve", "--N", "5", "--L", "1", "--m", "all",
                   "--out", str(out)])
        assert rc == 0
        report = read_json(out)
        recs = report["chains"][0]["solutions"]
        assert len(recs) == 3  # m in {0, 1, 2}
        assert all(r["rbeq_residual"] < 1e-10 for r in recs)

    def test_L2_records_m_prime(self, tmp_path):
        out = tmp_path / "solve2.json"
        rc = main(["solve", "--N", "3", "--L", "2", "--m", "0",
                   "--out", str(out)])
        assert rc == 0
        recs = read_json(out)["chains"][0]["solutions"]
        assert [r["m_prime"] for r in recs] == [0, 1]

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["solve", "--N", "3", "--L", "3", "--out", str(a)]) == 0
        assert main(["solve", "--N", "3", "--L", "3", "--out", str(b)]) == 0
        ra, rb = strip_timing(read_json(a)), strip_timing(read_json(b))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_bad_sector(self, tmp_path, capsys):
        rc = main(["solve", "--N", "3", "--L", "3", "--m", "7",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        for m in ("1.5", "two"):
            assert main(["solve", "--N", "3", "--L", "3", "--m", m,
                         "--out", str(tmp_path / "x.json")]) == 2
            assert (f"error: --m takes an integer in [0, M] or 'all', got "
                    f"'{m}'" in capsys.readouterr().err)
        # a library caller reaches what the CLI's int parsing refuses
        config = cli.RunConfig([3], out=str(tmp_path / "x.json"))
        for L, m, says in ((1, 1.5, "--m takes an integer in [0, M] or 'all', "
                                    "got 1.5"),
                           (1, True, "--m takes an integer in [0, M] or 'all', "
                                     "got True"),
                           (3.0, "all", "L must be 1, 2 or 3, got 3.0")):
            with pytest.raises(ValueError) as err:
                cli.cmd_solve(config, L, m)
            assert str(err.value) == says
        assert not (tmp_path / "x.json").exists()


class TestButterfly:
    def test_n3_harper(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["butterfly", "--N", "3", "--out", str(out)])
        assert rc == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3  # P in {1, 2}, three levels each
        p1 = [float(r["energy_re"]) for r in rows if r["P"] == "1"]
        assert len(p1) == 3
        assert abs(sum(p1)) < 1e-9
        assert all(abs(float(r["energy_im"])) < 1e-10 for r in rows)
        assert p1 == sorted(p1)

    def test_conjugate_flux_symmetry(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["butterfly", "--N", "7", "--out", str(out)])
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        byP = {}
        for r in rows:
            byP.setdefault(int(r["P"]), []).append(float(r["energy_re"]))
        for P in range(1, 7):
            assert np.allclose(byP[P], byP[7 - P], atol=1e-9)

    def test_meta_sidecar(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["butterfly", "--N", "3", "--out", str(out)])
        meta = read_json(str(out) + ".meta.json")
        assert meta["meta"] == {"tool_version": __version__, "N_list": [3]}

    def test_rfc4180_header(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["butterfly", "--N", "3", "--out", str(out)])
        with open(out, "rb") as fh:
            first = fh.readline()
        assert first == b"N,P,index,energy_re,energy_im\r\n"

    @staticmethod
    def run_counting_eigvalsh(monkeypatch, tmp_path, n_list, params):
        calls = []
        real = np.linalg.eigvalsh

        def eigvalsh(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        out = tmp_path / "b.csv"
        assert cli.cmd_butterfly(cli.RunConfig(n_list, out=str(out)), *params) == 0
        with open(out, "rb") as fh:
            data = fh.read()
        return calls, data, read_json(str(out) + ".meta.json")["params"]

    @pytest.mark.parametrize("alpha", [1.0, np.exp(2j * np.pi * 0.12428327649956394)])
    def test_hermitian_path(self, monkeypatch, tmp_path, capsys, alpha):
        # exp(2 pi i r) rounds to |alpha| one ulp below 1; it still counts as
        # unit modulus, and eigvalsh runs once per coprime P
        if alpha != 1.0:
            assert abs(alpha) != 1
        params = (1.3, 0.8, 0.5, alpha, np.exp(0.7j), np.exp(-2.1j))
        calls, data, sidecar = self.run_counting_eigvalsh(
            monkeypatch, tmp_path, [5, 9], params)
        assert calls == [(5, 5)] * 4 + [(9, 9)] * 6   # 3 and 6 skipped at N = 9
        assert capsys.readouterr().err == ""
        assert sidecar["hermitian"] is True
        rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
        assert all(float(r["energy_im"]) == 0.0 for r in rows)
        for N in (5, 9):
            for P in [p for p in range(1, N) if np.gcd(p, N) == 1]:
                got = [float(r["energy_re"]) for r in rows
                       if r["N"] == str(N) and r["P"] == str(P)]
                H = transfer.hofstadter_hamiltonian(make_context(N, P), *params).mat
                want = np.sort(np.linalg.eigvals(H).real)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_non_hermitian_path(self, monkeypatch, tmp_path):
        # |alpha| = 2: the general eigensolver, rows sorted by (re, im)
        params = (1.0, 1.0, 0.0, 2.0, 1.0, 1.0)
        calls, data, sidecar = self.run_counting_eigvalsh(
            monkeypatch, tmp_path, [3, 5], params)
        assert calls == []
        assert sidecar["hermitian"] is False
        want = ["N,P,index,energy_re,energy_im"]
        for N, P in ((3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4)):
            H = transfer.hofstadter_hamiltonian(make_context(N, P), *params).mat
            evals = np.linalg.eigvals(H)
            evals = evals[np.lexsort((evals.imag, evals.real))]
            want += [f"{N},{P},{i},{e.real:.15g},{e.imag:.15g}"
                     for i, e in enumerate(evals)]
        assert data == "".join(line + "\r\n" for line in want).encode("utf-8")

    @pytest.mark.parametrize("params", [
        (1.3, 0.8, 0.5, np.exp(0.4j), np.exp(0.7j), np.exp(-2.1j)),
        (1.0, 1.0, 0.0, 2.0, 1.0, 1.0)])
    def test_no_context_or_operator_per_flux(self, monkeypatch, tmp_path,
                                             params):
        # one parameter check per call, one block of diagonals per N (5 and
        # 9 fluxes fit in BUTTERFLY_BLOCK), and one _spectrum call per
        # coprime flux on one buffer per N; no Context and no Operator
        config = cli.RunConfig([5, 9], out=str(tmp_path / "b.csv"))
        counts, buffers = Counter(), []

        def count(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module in (cli, weylcore):
            monkeypatch.setattr(module, "make_context",
                                count("make_context", module.make_context))
        monkeypatch.setattr(weylcore.Operator, "__post_init__", count(
            "Operator", weylcore.Operator.__post_init__))
        for name in ("hamiltonian_params", "flux_diagonals"):
            monkeypatch.setattr(cli, name, count(name, getattr(cli, name)))

        def spectrum(H, hermitian):
            buffers.append(H)
            return real_spectrum(H, hermitian)

        real_spectrum = cli._spectrum
        monkeypatch.setattr(cli, "_spectrum", spectrum)
        assert cli.cmd_butterfly(config, *params) == 0
        assert counts == {"hamiltonian_params": 1, "flux_diagonals": 2}
        assert [H.shape for H in buffers] == [(5, 5)] * 4 + [(9, 9)] * 6
        assert len({id(H) for H in buffers}) == 2


class TestCurvesCmd:
    def test_default_ranks(self, tmp_path, capsys):
        out = tmp_path / "curves.json"
        rc = main(["curves", "--N", "3", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        report = read_json(out)
        (res,) = report["results"]
        assert res["epsilon_ranks"] == {"0": 9, "1": 9, "2": 9}
        assert res["descended_residual_max"] < 1e-8
        assert res["abcd_max_residual"] < 1e-10

    def test_failed_gates_are_named(self, tmp_path, capsys):
        out = tmp_path / "curves.json"
        assert main(["curves", "--N", "3", "--tol", "descent=1e-30",
                     "--tol", "identity=1e-30", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        for gate in ("descent", "identity"):
            assert re.search(rf"^FAIL {gate} at N=3: residual \S+ >= 1e-30$",
                             err, re.M), err
        assert read_json(out)["results"][0]["pass"] is False

    def test_identity_negative_control(self, tmp_path, monkeypatch, capsys):
        # one coefficient of the product off by 1e-6 fails the identity gate
        real = cli.abcd_polys

        def polys(chain, ctx):
            P = real(chain, ctx)
            P[3, 1, 0] *= 1 + 1e-6          # C's top coefficient
            return P

        monkeypatch.setattr(cli, "abcd_polys", polys)
        out = tmp_path / "curves.json"
        assert main(["curves", "--N", "3", "--out", str(out)]) == 1
        assert re.search(r"^FAIL identity at N=3: ", capsys.readouterr().err,
                         re.M)
        (rec,) = read_json(out)["results"]
        assert rec["pass"] is False and rec["abcd_max_residual"] > 1e-10

    def test_rank_gate(self, tmp_path, monkeypatch, capsys):
        # a sector whose evaluation map loses one rank fails the record
        def ranks(vecs, ctx):
            return [ctx.N ** 2 - (l == 1) for l in range(ctx.N)]

        monkeypatch.setattr(cli, "evaluation_ranks", ranks)
        out = tmp_path / "curves.json"
        assert main(["curves", "--N", "3", "--out", str(out)]) == 1
        assert re.search(r"^FAIL evaluation-map rank at N=3, sectors \[1\]$",
                         capsys.readouterr().err, re.M)
        (rec,) = read_json(out)["results"]
        assert rec["pass"] is False
        assert rec["epsilon_ranks"] == {"0": 9, "1": 8, "2": 9}

    def test_insufficient_points(self, tmp_path, capsys):
        # curves always samples 2N^2 points; --points is no setting of it
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--N", "3", "--points", "4", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --points 4" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_robust_ranks(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["curves", "--N", "3", "--seed", "7", "--out", str(a)])
        main(["curves", "--N", "3", "--seed", "8", "--out", str(b)])
        ra, rb = read_json(a), read_json(b)
        assert ra["results"][0]["epsilon_ranks"] == rb["results"][0]["epsilon_ranks"]

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["curves", "--N", "3", "--N", "5", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ra, rb = read_json(a), read_json(b)
        for rec, kept in zip(ra["results"], strip_timing(ra)["results"]):
            assert set(rec) - set(kept) == {"wall_s", "peak_rss_mb"}
        assert strip_timing(ra) == strip_timing(rb)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


class TestFailingN:
    """solve and curves record a failing N the way verify records a suite."""

    def test_solve_pole_is_recorded(self, tmp_path, monkeypatch, capsys):
        real = cli.solve_L3

        def solve(m, c, ctx):
            if ctx.N == 5:
                raise PoleError("forced pole")
            return real(m, c, ctx)

        monkeypatch.setattr(cli, "solve_L3", solve)
        out = tmp_path / "solve.json"
        rc = main(["solve", "--N", "3", "--N", "5", "--L", "3",
                   "--out", str(out)])
        assert rc == 1
        assert "PoleError" in capsys.readouterr().err
        report = read_json(out)
        assert report["pass"] is False
        good, bad = report["chains"]
        assert bad.pop("wall_s") >= 0 and bad.pop("peak_rss_mb") > 0
        assert bad == {"N": 5, "error": {"class": "PoleError",
                                         "message": "forced pole"}}
        assert good["N"] == 3 and "error" not in good
        assert len(good["solutions"]) == 6

    def test_curves_runtime_error_is_recorded(self, tmp_path, monkeypatch):
        real = cli.descended_t_residual

        def residual(chain, x, xi0, xi2, ctx):
            if ctx.N == 5:
                raise RuntimeError("forced failure")
            return real(chain, x, xi0, xi2, ctx)

        monkeypatch.setattr(cli, "descended_t_residual", residual)
        out = tmp_path / "curves.json"
        rc = main(["curves", "--N", "3", "--N", "5", "--out", str(out)])
        assert rc == 1
        report = read_json(out)
        assert report["pass"] is False
        good, bad = report["results"]
        assert bad.pop("wall_s") >= 0 and bad.pop("peak_rss_mb") > 0
        assert bad == {"N": 5, "pass": False,
                       "error": {"class": "RuntimeError",
                                 "message": "forced failure"}}
        assert good["N"] == 3 and good["pass"] is True
        assert good["epsilon_ranks"] == {"0": 9, "1": 9, "2": 9}


# the command whose report each declared tolerance gates
TOLERANCE_READERS = {
    "rll": "verify", "commutator": "verify", "baxter_action": "verify",
    "theorem1": "verify", "divisibility": "verify", "degeneracy": "verify",
    "identity": "curves", "descent": "curves",
}


def test_every_tolerance_has_a_reader():
    assert set(TOLERANCE_READERS) == set(cli.DEFAULT_TOLERANCES)


@pytest.mark.parametrize("name", sorted(TOLERANCE_READERS))
def test_tolerance_is_enforced(tmp_path, name):
    # every N = 3 residual at the default seed is nonzero, so 1e-300 fails it
    out = tmp_path / "report.json"
    rc = main([TOLERANCE_READERS[name], "--N", "3", "--tol", f"{name}=1e-300",
               "--out", str(out)])
    assert rc == 1
    for s in read_json(out).get("suites", []):
        assert s["pass"] is (s["suite"] != name)


@pytest.mark.parametrize("command", ["verify", "solve", "curves"])
def test_meta_echoes_the_tolerances_read(tmp_path, command):
    out = tmp_path / "report.json"
    extra = ["--L", "1"] if command == "solve" else []
    assert main([command, "--N", "3", "--out", str(out)] + extra) == 0
    assert set(read_json(out)["meta"]["tolerances"]) == \
        {name for name, cmd in TOLERANCE_READERS.items() if cmd == command}


def test_butterfly_sidecar_echoes_no_flux_or_tolerance(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["butterfly", "--N", "3", "--N", "5", "--out", str(out)]) == 0
    meta = read_json(str(out) + ".meta.json")["meta"]
    assert "P" not in meta and "tolerances" not in meta
    assert "seed" not in meta
    assert meta["N_list"] == [3, 5]


@pytest.mark.parametrize("name", ["eigen", "ansatz"])
def test_undeclared_tolerance_refused(tmp_path, capsys, name):
    out = tmp_path / "x.json"
    assert main(["verify", "--N", "3", "--tol", f"{name}=1",
                 "--out", str(out)]) == 2
    assert "unknown tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,name", [
    (cmd, name) for cmd in ("verify", "curves")
    for name in sorted(TOLERANCE_READERS) if TOLERANCE_READERS[name] != cmd])
def test_tolerance_of_another_command_refused(tmp_path, capsys, command, name):
    out = tmp_path / "x.json"
    assert main([command, "--N", "3", "--tol", f"{name}=1e-300",
                 "--out", str(out)]) == 2
    assert "unknown tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "solve", "curves", "butterfly"])
def test_library_call_refuses_unknown_tolerance(tmp_path, command):
    # the same refusal as --tol, for a RunConfig built in code
    out = tmp_path / "x.out"
    name = "rll" if command == "curves" else "descent"
    config = cli.RunConfig(n_list=[3], tolerances={name: 1e-300}, out=str(out))
    run = {"verify": cli.cmd_verify, "curves": cli.cmd_curves,
           "solve": lambda c: cli.cmd_solve(c, 1, "all"),
           "butterfly": lambda c: cli.cmd_butterfly(c, 1.0, 1.0, 0.0, 1, 1, 1)}
    with pytest.raises(ValueError, match="unknown tolerance"):
        run[command](config)
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "solve", "curves", "butterfly"])
def test_library_call_refuses_empty_n_list(tmp_path, command):
    # with no N a command would write "pass": true over no records
    out = tmp_path / "x.out"
    run = {"verify": cli.cmd_verify, "curves": cli.cmd_curves,
           "solve": lambda c: cli.cmd_solve(c, 1, "all"),
           "butterfly": lambda c: cli.cmd_butterfly(c, 1.0, 1.0, 0.0, 1, 1, 1)}
    with pytest.raises(ValueError, match="n_list is empty"):
        run[command](cli.RunConfig(n_list=[], out=str(out)))
    assert not out.exists()


def test_refused_butterfly_input_writes_no_file(tmp_path):
    out = tmp_path / "b.csv"
    config = cli.RunConfig(n_list=[3, 5], out=str(out))
    with pytest.raises(ValueError):
        cli.cmd_butterfly(config, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    assert not out.exists()
    assert not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("flag,value", [("--mu", "nan"),
                                        ("--gamma", "nan+0j")])
def test_non_finite_butterfly_parameter_refused(tmp_path, capsys, flag, value):
    # refused by name before LAPACK sees it, with no warning on the way
    out = tmp_path / "b.csv"
    assert main(["butterfly", "--N", "3", flag, value, "--out", str(out)]) == 2
    assert (f"error: {flag[2:]} must be finite"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("args,says", [
    (["--mu", "1e308", "--nu", "1e308"], "the Hamiltonian overflows"),
    (["--alpha", "1e-320"], "the Hamiltonian overflows"),
    (["--rho", "1e308"], "butterfly at N=3: an energy overflows")])
def test_overflowing_butterfly_parameters_refused(tmp_path, capsys, args, says):
    # finite parameters whose Hamiltonian entries, or whose energies, are not
    # finite: refused by name, with no warning, no CSV and no sidecar
    import warnings
    out = tmp_path / "b.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["butterfly", "--N", "3", *args, "--out", str(out)]) == 2
    assert f"error: {says}" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,name", [("verify", "rll"),
                                          ("curves", "descent")])
def test_non_finite_tolerance_refused(tmp_path, capsys, command, name, value):
    out = tmp_path / "x.json"
    assert main([command, "--N", "3", "--tol", f"{name}={value}",
                 "--out", str(out)]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["verify"], ["solve", "--L", "1"],
                                  ["butterfly"], ["curves"]])
def test_repeated_n_refused(tmp_path, capsys, argv):
    # a repeated N would run again and write its records twice
    out = tmp_path / "x.out"
    assert main(argv + ["--N", "3", "--N", "5", "--N", "3",
                        "--out", str(out)]) == 2
    assert "config error: N given more than once: [3]" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("argv", [["verify"], ["solve", "--L", "3"],
                                  ["curves"]])
def test_negative_seed_refused(tmp_path, capsys, argv):
    # numpy's generators refuse it, which would fail every record
    out = tmp_path / "x.out"
    assert main(argv + ["--N", "3", "--seed", "-1", "--out", str(out)]) == 2
    assert ("config error: seed must be non-negative, got -1"
            in capsys.readouterr().err)
    assert not out.exists()
    assert not Path(str(out) + ".meta.json").exists()


def test_huge_n_refused_before_a_root_table(tmp_path, capsys):
    # RunConfig built make_context(N) for each N, a 10^7-entry root table
    # (about 400 MB traced) before the size refusal
    import tracemalloc
    out = tmp_path / "v.json"
    tracemalloc.start()
    try:
        cli.RunConfig(n_list=[10_000_001])
        config_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["verify", "--N", "10000001", "--out", str(out)]) == 2
        main_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config_peak < 2**20 and main_peak < 2**24
    assert "error: verify at N=10000001 needs dense" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("L,shape", [("1", "100000 x 100000"),
                                     ("2", "200003 x 400002")])
def test_solve_refuses_every_L_by_size(tmp_path, capsys, L, shape):
    # only --L 3 was sized: --L 1 ran sector 0 until numpy's MemoryError for
    # its (100000, 100000) root companion and exited 1 with a report
    import tracemalloc
    out = tmp_path / "s.json"
    tracemalloc.start()
    try:
        assert main(["solve", "--L", L, "--N", "200001", "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24
    assert f"error: solve --L {L} at N=200001 needs dense {shape}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_large_P_keeps_the_roots_exact(tmp_path):
    # P = 10^15 + 1 is coprime to 5 and reads as P = 1; before the root
    # table came from P mod N, every suite failed with exit 1
    out = tmp_path / "v.json"
    assert main(["verify", "--N", "5", "--P", "1000000000000001",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["P"] == 1000000000000001


@pytest.mark.parametrize("kwargs,says", [
    ({"n_list": [3.0]}, "N must be an integer, got 3.0"),
    ({"n_list": [3], "P": 1.5}, "P must be an integer, got 1.5"),
    ({"n_list": [3], "P": True}, "P must be an integer, got True"),
    ({"n_list": [3], "seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"n_list": [3], "seed": True}, "seed must be an integer, got True"),
    ({"n_list": [3], "tolerances": {"rll": "1e-3"}},
     "tolerance 'rll' must be positive and finite, got '1e-3'"),
    ({"n_list": [3], "tolerances": {"rll": True}},
     "tolerance 'rll' must be positive and finite, got True"),
    ({"n_list": [3], "tolerances": [("rll", 1e-3)]},
     "tolerances must map names to values, got [('rll', 0.001)]"),
    ({"n_list": [3], "out": 5}, "out must be a path, got 5"),
    ({"n_list": 5}, "n_list must be a list or tuple of N, got 5"),
    ({"n_list": np.array([5])},
     "n_list must be a list or tuple of N, got array([5])"),
    ({"n_list": {5: 1}}, "n_list must be a list or tuple of N, got {5: 1}"),
    ({"n_list": np.array([5, 7])},
     "n_list must be a list or tuple of N, got array([5, 7])"),
    ({"n_list": [np.uint8(5)]}, "N must be an integer, got np.uint8(5)"),
    ({"n_list": [True]}, "N must be an integer, got True"),
    ({"n_list": [5], "P": np.uint64(2)},
     "P must be an integer, got np.uint64(2)"),
    ({"n_list": [5], "seed": np.uint8(3)},
     "seed must be an integer, got np.uint8(3)"),
    ({"n_list": [np.array(5)]}, "N must be one integer, got array(5)"),
    ({"n_list": [5], "seed": [3]}, "seed must be one integer, got [3]")])
def test_non_integer_config_refused(kwargs, says):
    # the CLI parses these flags as int, float and str and collects --N in a
    # list; a library caller would otherwise meet a TypeError from math.gcd,
    # numpy, <, os.path or iteration, an AttributeError from count() or
    # numpy's ambiguous truth value, or run seed True as seed 1 and
    # tolerance True as 1.0; an unsigned N passed and every command then
    # died with numpy's OverflowError, and a Context and a report hold one
    # N, P and seed each
    with pytest.raises(ValueError) as err:
        cli.RunConfig(**kwargs)
    assert str(err.value) == says


@pytest.mark.parametrize("argv", [["verify"], ["solve", "--L", "3"],
                                  ["butterfly"], ["curves"]])
def test_unusable_out_refused(tmp_path, capsys, monkeypatch, argv):
    # the write would fail only after every N had run
    def spy(*args):
        raise AssertionError("a suite or solver ran")

    monkeypatch.setattr(cli, "VERIFY_SUITES", [("rll", spy)])
    for name in ("solve_L3", "flux_diagonals", "draw_w_points"):
        monkeypatch.setattr(cli, name, spy)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    for out, says in ((tmp_path / "missing" / "x.out", ": no such directory"),
                      (tmp_path / "dir", " is a directory")):
        assert main(argv + ["--N", "3", "--out", str(out)]) == 2
        assert (f"config error: --out {str(out)!r}{says}"
                in capsys.readouterr().err)
        assert not Path(str(out) + ".meta.json").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("command,name", [("verify", "commutator"),
                                          ("curves", "descent")])
def test_repeated_tol_refused(tmp_path, capsys, command, name):
    # the last value would otherwise gate alone: here the looser one
    out = tmp_path / "x.out"
    assert main([command, "--N", "3", "--tol", f"{name}=1e-10",
                 "--tol", f"{name}=0.5", "--out", str(out)]) == 2
    assert (f"config error: tolerance {name!r} given more than once"
            in capsys.readouterr().err)
    assert not out.exists()


def readme_flag_table() -> dict:
    """The README's CLI flag table as {command: set of option strings}."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| ")]
    header = next(r for r in rows if r[0] == "flag")
    table = rows[rows.index(header) + 1:]
    table = table[:next((i for i, r in enumerate(table)
                         if len(r) != len(header)), len(table))]
    flags = {cmd.strip("`"): set() for cmd in header[1:]}
    for row in table:
        (flag,) = re.findall(r"`(--\w+)", row[0]) or [None]
        for cmd, cell in zip(flags, row[1:]):
            if flag is None:        # the row of each command's own flags
                flags[cmd].update(re.findall(r"`(--\w+)`", cell))
            elif cell == "yes":
                flags[cmd].add(flag)
            else:
                assert cell == "—", (flag, cmd, cell)
    return flags


def test_readme_flag_table_matches_parser():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = {cmd: {o for a in p._actions for o in a.option_strings
                    if o not in ("-h", "--help")}
              for cmd, p in sub.choices.items()}
    assert readme_flag_table() == parsed


class TestInputCheckedFirst:
    """Bad input at any N is refused before the first N runs."""

    def test_verify_gcd_at_second_n(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            ("rll", lambda ctx, rng: calls.append(ctx.N) or 0.0)])
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--N", "9", "--P", "3",
                     "--out", str(out)]) == 2
        assert calls == [] and not out.exists()

    def test_solve_sector_at_second_n(self, tmp_path, monkeypatch, capsys):
        def solve(m, c, ctx):
            raise AssertionError("solve_L3 called")

        monkeypatch.setattr(cli, "solve_L3", solve)
        out = tmp_path / "solve.json"
        assert main(["solve", "--N", "5", "--N", "3", "--L", "3", "--m", "2",
                     "--out", str(out)]) == 2
        assert "m=2 outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_curves_points_at_second_n(self, tmp_path, monkeypatch, capsys):
        def draw(*args):
            raise AssertionError("draw_w_points called")

        monkeypatch.setattr(cli, "draw_w_points", draw)
        out = tmp_path / "curves.json"
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--N", "3", "--N", "5", "--points", "10",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_dense_verify_at_second_n(self, tmp_path, monkeypatch,
                                                 capsys):
        calls = []
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            ("rll", lambda ctx, rng: calls.append(ctx.N) or 0.0)])
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--N", "31", "--out", str(out)]) == 2
        assert "N=31 needs dense 29791 x 29791" in capsys.readouterr().err
        assert calls == [] and not out.exists()
        # the largest size the dense commutator still runs at
        assert main(["verify", "--N", "13", "--out", str(out)]) == 0
        assert calls == [13]

    @pytest.mark.parametrize("argv,largest,refused", [
        (["curves"], 23, "N=25 needs dense 1250 x 25 x 25 x 25"),
        (["solve", "--L", "3"], 153, "N=155 needs dense 155 x 235 x 464"),
        (["solve", "--L", "1"], 8193, "--L 1 at N=8195 needs dense 4097 x 4097"),
        (["solve", "--L", "2"], 2895, "--L 2 at N=2897 needs dense 2899 x 5794"),
    ])
    def test_oversized_curves_and_solve(self, tmp_path, monkeypatch, capsys,
                                        argv, largest, refused):
        calls = []
        monkeypatch.setattr(cli, "_attempt",
                            lambda fn, config, record, label: calls.append(label))
        out = tmp_path / "report.json"
        assert main(argv + ["--N", "5", "--N", str(largest + 2),
                            "--out", str(out)]) == 2
        assert refused in capsys.readouterr().err
        assert calls == [] and not out.exists()
        # the largest N accepted passes the size check and reaches its run
        assert main(argv + ["--N", str(largest), "--out", str(out)]) == 1
        assert len(calls) == 1 and out.exists()

    def test_solve_below_l3_has_no_size_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_attempt", lambda *args: None)
        assert main(["solve", "--L", "2", "--N", "155",
                     "--out", str(tmp_path / "solve.json")]) == 1

    @pytest.mark.parametrize("argv", [
        ["butterfly", "--N", "3", "--P", "2"],
        ["butterfly", "--N", "3", "--tol", "rll=1"],
        ["solve", "--N", "3", "--L", "3", "--tol", "rll=1"],
        ["butterfly", "--N", "3", "--seed", "1"],
    ])
    def test_flag_not_read_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_and_curves_take_p(self, tmp_path):
        out = tmp_path / "solve.json"
        assert main(["solve", "--N", "5", "--P", "2", "--L", "1",
                     "--out", str(out)]) == 0
        assert read_json(out)["meta"]["P"] == 2
        out = tmp_path / "curves.json"
        assert main(["curves", "--N", "3", "--P", "2", "--out", str(out)]) == 0
        assert read_json(out)["meta"]["P"] == 2


class TestAttempts:
    """Each record counts the calls its body took, redraws included."""

    def test_one_redraw_counts_two_attempts(self, tmp_path, monkeypatch):
        calls = []

        def flaky(ctx, rng):
            calls.append(ctx.N)
            if len(calls) == 1:
                raise GenericityError("forced degeneracy")
            return 0.0

        monkeypatch.setattr(cli, "VERIFY_SUITES", [("rll", flaky)])
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "3", "--out", str(out)]) == 0
        (rec,) = read_json(out)["suites"]
        assert rec["attempts"] == 2 and rec["pass"] is True

    def test_every_command_records_attempts(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "3", "--out", str(out)]) == 0
        assert [s["attempts"] for s in read_json(out)["suites"]] == [1] * 6
        out = tmp_path / "solve.json"
        assert main(["solve", "--N", "3", "--L", "1", "--out", str(out)]) == 0
        (entry,) = read_json(out)["chains"]
        assert entry["attempts"] == 1
        assert entry["wall_s"] >= 0 and entry["peak_rss_mb"] > 0
        out = tmp_path / "curves.json"
        assert main(["curves", "--N", "3", "--out", str(out)]) == 0
        (result,) = read_json(out)["results"]
        assert result["attempts"] == 1
        assert result["wall_s"] >= 0 and result["peak_rss_mb"] > 0


class TestCurvesBatched:
    """cmd_curves checks descent in one batch per attempt."""

    def test_one_fiber_average_one_transfer_pass(self, tmp_path, monkeypatch):
        from hofchain import curves
        calls = []

        def counting(name, real):
            def wrapped(*args, **kwargs):
                # averaged_baxter(x, xi0, xi2, chain, ctx, convention)
                conv = (args[5] if len(args) > 5
                        else kwargs.get("convention", "descent"))
                calls.append((name, conv if name == "rows" else None))
                return real(*args, **kwargs)
            return wrapped

        for module in (cli, curves):
            monkeypatch.setattr(module, "averaged_baxter",
                                counting("rows", curves.averaged_baxter))
        monkeypatch.setattr(curves, "transfer_apply",
                            counting("apply", curves.transfer_apply))
        out = tmp_path / "curves.json"
        assert main(["curves", "--N", "3", "--N", "5", "--out", str(out)]) == 0
        attempts = sum(r["attempts"] for r in read_json(out)["results"])
        assert attempts == 2
        assert Counter(calls) == {("rows", "descent"): attempts,
                                  ("rows", "evaluation"): attempts,
                                  ("apply", None): attempts}


class TestStackedSuites:
    """rll and baxter_action evaluate all their draws in one stacked call per
    attempt, and theorem1 applies T(x) at most twice."""

    def test_calls_per_attempt(self, tmp_path, monkeypatch):
        from hofchain import baxter
        suite, calls = [None], []

        def count(module, name):
            real = getattr(module, name)

            def wrapped(*args):
                calls.append((suite[0], name))
                return real(*args)

            monkeypatch.setattr(module, name, wrapped)

        def tagged(name, fn):
            def run(ctx, rng):
                suite[0] = name
                return fn(ctx, rng)
            return run

        count(cli, "rll_residual")
        count(cli, "t_action_residual")
        count(baxter, "transfer_apply")
        monkeypatch.setattr(cli, "VERIFY_SUITES",
                            [(n, tagged(n, fn)) for n, fn in cli.VERIFY_SUITES])
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--out", str(out)]) == 0
        attempts = {r["suite"]: r["attempts"] for r in read_json(out)["suites"]}
        counts = Counter(calls)
        assert counts[("rll", "rll_residual")] == attempts["rll"]
        assert counts[("baxter_action", "t_action_residual")] \
            == counts[("baxter_action", "transfer_apply")] \
            == attempts["baxter_action"]
        assert 1 <= counts[("theorem1", "transfer_apply")] \
            <= 2 * attempts["theorem1"]
        assert set(counts) == {("rll", "rll_residual"),
                               ("baxter_action", "t_action_residual"),
                               ("baxter_action", "transfer_apply"),
                               ("theorem1", "transfer_apply")}


class TestNaNResidual:
    """A NaN residual fails its record wherever it falls."""

    def test_verify_suite(self, tmp_path, monkeypatch):
        real, rows = cli.rll_residual, []

        def residual(*args):
            out = real(*args)
            rows.append(len(out))
            out[1] = np.nan                 # the second draw's residual
            return out

        monkeypatch.setattr(cli, "rll_residual", residual)
        monkeypatch.setattr(cli, "VERIFY_SUITES", [("rll", cli._suite_rll)])
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "3", "--out", str(out)]) == 1
        (rec,) = read_json(out)["suites"]
        assert rec["pass"] is False and np.isnan(rec["max_residual"])
        assert rows == [20]

    @pytest.mark.parametrize("where", ["descent", "abcd"])
    def test_curves(self, where, tmp_path, monkeypatch):
        if where == "descent":
            real = cli.descended_t_residual

            def residual(chain, x, xi0, xi2, ctx):
                out = real(chain, x, xi0, xi2, ctx)
                out[1] = np.nan          # the second point's residual
                return out

            monkeypatch.setattr(cli, "descended_t_residual", residual)
        else:
            real = cli.abcd_polys

            def polys(chain, ctx):
                P = real(chain, ctx)
                P[0, 0, 0] = np.nan
                return P

            monkeypatch.setattr(cli, "abcd_polys", polys)
        out = tmp_path / "curves.json"
        assert main(["curves", "--N", "3", "--out", str(out)]) == 1
        (rec,) = read_json(out)["results"]
        key = {"descent": "descended_residual_max",
               "abcd": "abcd_max_residual"}[where]
        assert rec["pass"] is False and np.isnan(rec[key])


class TestNaNRows:
    """A NaN in one row of a stacked residual fails its record too."""

    def test_theorem1_second_sector(self, tmp_path, monkeypatch):
        from hofchain import baxter
        real = baxter.transfer_apply

        def apply(*args):
            out = real(*args)
            if out.ndim == 3:               # (draw, sector, N^L)
                out[0, 1] = np.nan          # the second sector row
            return out

        monkeypatch.setattr(baxter, "transfer_apply", apply)
        monkeypatch.setattr(cli, "VERIFY_SUITES",
                            [("theorem1", cli._suite_theorem1)])
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--seed", "1",
                     "--out", str(out)]) == 1
        (rec,) = read_json(out)["suites"]
        assert rec["pass"] is False and np.isnan(rec["max_residual"])

    def test_solve_max_rbeq(self, tmp_path, monkeypatch):
        real, calls = cli._solution_record, []

        def record(sol):
            calls.append(1)
            rec = real(sol)
            if len(calls) == 2:
                rec["rbeq_residual"] = float("nan")
            return rec

        monkeypatch.setattr(cli, "_solution_record", record)
        out = tmp_path / "solve.json"
        main(["solve", "--N", "3", "--L", "3", "--out", str(out)])
        (entry,) = read_json(out)["chains"]
        assert np.isnan(entry["residual_summary"]["max_rbeq"])
        assert entry["residual_summary"]["count"] == len(calls) == 6


class TestMemoryError:
    """An allocation refused at one N fails that N's record alone."""

    @pytest.mark.parametrize("command", ["solve", "curves"])
    def test_recorded_not_retried(self, command, tmp_path, monkeypatch, capsys):
        name = {"solve": "solve_L3", "curves": "evaluation_ranks"}[command]
        real, calls = getattr(cli, name), []

        def refuse(*args):
            if args[-1].N == 5:
                calls.append(1)
                raise MemoryError("Unable to allocate 27.1 GiB")
            return real(*args)

        monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / f"{command}.json"
        extra = ["--L", "3"] if command == "solve" else []
        assert main([command, "--N", "3", "--N", "5", *extra,
                     "--out", str(out)]) == 1
        assert "MemoryError" in capsys.readouterr().err
        report = read_json(out)
        good, bad = report["chains" if command == "solve" else "results"]
        assert report["pass"] is False and len(calls) == 1
        assert bad["error"] == {"class": "MemoryError",
                                "message": "Unable to allocate 27.1 GiB"}
        assert "attempts" not in bad
        assert good["N"] == 3 and "error" not in good and good["attempts"] == 1


class TestDegeneracy:
    """The suite reduces each sector block to N x N through the commutant."""

    def test_evidence_on_the_record(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--out", str(out)]) == 0
        records = {s["suite"]: s for s in read_json(out)["suites"]}
        rec = records.pop("degeneracy")
        div = records.pop("divisibility")["evidence"]
        assert all("evidence" not in r for r in records.values())
        assert set(div) == {"worst_pair", "eigvec_residual", "min_rel_gap",
                            "min_gap_pair", "s1_commutator", "s2_commutator",
                            "invariance_residual"}
        assert max(div["s1_commutator"], div["s2_commutator"],
                   div["invariance_residual"]) < 1e-13
        pairs = [[2 * m % 5, m] for m in range(3)] + \
            [[-2 * m % 5, -m % 5] for m in range(1, 3)]
        assert div["worst_pair"] in pairs and div["min_gap_pair"] in pairs
        assert div["eigvec_residual"] <= cli.EIGVEC_GATE
        assert 0 < div["min_rel_gap"] <= 2
        ev = rec["evidence"]
        assert set(ev) == {"worst_sector", "min_rel_gap", "min_gap_sector",
                           "s1_commutator", "s2_commutator"}
        assert ev["worst_sector"] in range(5)
        assert ev["min_gap_sector"] in range(5)
        assert ev["min_rel_gap"] >= cli.EIGEN_GAP
        assert max(ev["s1_commutator"], ev["s2_commutator"]) \
            <= rec["max_residual"] < 1e-13

    def test_one_n_by_n_eigensolve_per_sector(self, monkeypatch):
        # no N^2 x N^2 eigensolve and no brute-force oracle on the run path
        from hofchain import bethe
        shapes, real = [], np.linalg.eigvals

        def eigvals(a):
            shapes.append(a.shape)
            return real(a)

        def refuse(*args):
            raise AssertionError("oracle called")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        monkeypatch.setattr(bethe, "oracle_spectrum", refuse)
        monkeypatch.setattr(bethe, "cluster_eigenvalues", refuse)
        res, _ = cli._suite_degeneracy(make_context(7),
                                       np.random.default_rng(20240001))
        assert res < 1e-13
        assert shapes == [(7, 7, 7)]    # one call: an N x N matrix per sector

    @staticmethod
    def only_degeneracy(monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_SUITES", [
            s for s in cli.VERIFY_SUITES if s[0] == "degeneracy"])

    @staticmethod
    def patch_r(monkeypatch, change):
        # the suite reduces all sectors in one call: change(R_l, l, call)
        # edits the N x N matrix of sector l in place
        real, calls = cli.commutant_reduction, []

        def reduction(chain, ctx, ls):
            calls.append(list(ls))
            R, res, lift = real(chain, ctx, ls)
            for i, l in enumerate(ls):
                change(R[i], l, len(calls))
            return R, res, lift

        monkeypatch.setattr(cli, "commutant_reduction", reduction)
        TestDegeneracy.only_degeneracy(monkeypatch)
        return calls

    def test_min_gap_sector_survives_one_ulp(self, monkeypatch):
        # at N = 5 and the default seed, sectors 2 and 3 = -2 have gaps equal
        # to 15 digits: np.argmin of the gaps names 3, and 2 after each of
        # these one-ulp changes to a coefficient of sector 2; the field names
        # the first of the two
        nudges, named = [None, ((3, 5), True), ((4, 11), True),
                         ((5, 20), True)], []

        def nudge(coef, l, call):
            if nudges[call - 1] and l == 2:
                one_ulp(coef, *nudges[call - 1])

        patch_paths(monkeypatch, nudge)
        for _ in nudges:
            named.append(cli._suite_degeneracy(
                make_context(5), np.random.default_rng(20240001))[1]
                ["min_gap_sector"])
        assert named == [2] * 4

    def test_non_commuting_block_fails(self, tmp_path, monkeypatch, capsys):
        # one path coefficient moved on one orbit: a small term that commutes
        # with neither S_1 nor S_2
        def perturb(coef, l, call):
            coef[1, 0] += 1e-6 * np.max(np.abs(coef))

        patch_paths(monkeypatch, perturb)
        self.only_degeneracy(monkeypatch)
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--out", str(out)]) == 1
        assert re.search(r"^FAIL invariant degeneracy at N=5: residual \S+ "
                         r">= 1e-08$", capsys.readouterr().err, re.M)
        (rec,) = read_json(out)["suites"]
        assert rec["pass"] is False and rec["attempts"] == 1
        assert 1e-8 < rec["evidence"]["s1_commutator"] <= rec["max_residual"]

    def test_near_degenerate_r_is_a_redraw(self, tmp_path, monkeypatch):
        # R_l = 2 I_N has one N-fold eigenvalue: the first draw is refused,
        # the second passes
        def scalar_first(R, l, call):
            if call == 1:
                R[:] = 2.0 * np.eye(len(R))

        self.patch_r(monkeypatch, scalar_first)
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--out", str(out)]) == 0
        (rec,) = read_json(out)["suites"]
        assert rec["attempts"] == 2 and rec["pass"] is True

    def test_gap_error_names_the_sector(self, tmp_path, monkeypatch):
        def scalar_sector_3(R, l, call):
            if l == 3:
                R[:] = np.eye(len(R))

        calls = self.patch_r(monkeypatch, scalar_sector_3)
        out = tmp_path / "verify.json"
        assert main(["verify", "--N", "5", "--out", str(out)]) == 1
        (rec,) = read_json(out)["suites"]
        assert rec["error"] == {
            "class": "GenericityError",
            "message": "sector 3: eigenvalues of R_l have relative gap 0 "
                       "< 1e-06"}
        assert calls == [[0, 1, 2, 3, 4]] * 5


class TestButterflySize:
    def test_oversized_n_refused_before_any_hamiltonian(self, tmp_path,
                                                        monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("Hamiltonian built")

        monkeypatch.setattr(cli, "flux_diagonals", refuse)
        out = tmp_path / "b.csv"
        assert main(["butterfly", "--N", "5", "--N", "1847",
                     "--out", str(out)]) == 2
        assert "butterfly at N=1847 needs dense 3409562 x 5" \
            in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    def test_largest_n_passes_the_size_check(self):
        # the check alone: at N = 1831, prime, the 1831 * 1830 rows of 5
        # count 268 MB, just under the bound; N = 1847 is the first refused
        cli._refuse_oversized("butterfly", [1831])
        with pytest.raises(ValueError, match="N=1847"):
            cli._refuse_oversized("butterfly", [1831, 1847])

    def test_formatting_peak_under_the_counted_rows(self, tmp_path,
                                                    monkeypatch):
        # at N = 401 the 160,400 rows are formatted BUTTERFLY_BLOCK at a time,
        # so the traced peak stays under the 80 B a row of LARGEST_ARRAY; the
        # eigensolve gives way to H's sorted diagonal, as many floats of the
        # same type (LAPACK's work arrays are not traced in any case)
        import tracemalloc
        monkeypatch.setattr(cli, "_spectrum",
                            lambda H, hermitian: np.sort(H.diagonal().real))
        tracemalloc.start()
        try:
            assert cli.cmd_butterfly(cli.RunConfig([401], out=str(
                tmp_path / "b.csv")), 1.0, 1.0, 0.0, 1, 1, 1) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, cols = cli.LARGEST_ARRAY["butterfly"](401)
        assert 16 * rows * cols == 401 * 400 * 80
        assert peak < 401 * 400 * 80

    @pytest.mark.parametrize("block", [1, 7, 53])
    def test_csv_does_not_depend_on_the_block(self, block, tmp_path,
                                              monkeypatch):
        # 1, 7 and 53 rows at a time write the bytes of one block per N
        n_list, params = [3, 7, 9], (0.7, 1.1, 0.3, 1.0, 1.5j, 1.0)
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        assert cli.cmd_butterfly(cli.RunConfig(n_list, out=str(want)),
                                 *params) == 0
        monkeypatch.setattr(cli, "BUTTERFLY_BLOCK", block)
        assert cli.cmd_butterfly(cli.RunConfig(n_list, out=str(got)),
                                 *params) == 0
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("params,hermitian", [
        ((1.3, 0.8, 0.5, np.exp(0.4j), np.exp(0.7j), np.exp(-2.1j)), True),
        ((1.0, 1.0, 0.0, 2.0, 1.0, 1.0), False),
        ((0.7, 1.1, 0.3, 1.0, 1.5j, 1.0), False)])
    def test_csv_matches_row_by_row_writer(self, tmp_path, params, hermitian):
        # the one-pass block per N writes what csv.writer wrote row by row
        out = tmp_path / "b.csv"
        n_list = [3, 7, 9]
        assert cli.cmd_butterfly(cli.RunConfig(n_list, out=str(out)),
                                 *params) == 0
        with open(tmp_path / "want.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "P", "index", "energy_re", "energy_im"])
            for N in n_list:
                for P in [p for p in range(1, N) if np.gcd(p, N) == 1]:
                    H = transfer.hofstadter_hamiltonian(make_context(N, P),
                                                        *params).mat
                    if hermitian:
                        evals = np.linalg.eigvalsh(H)
                    else:
                        evals = np.linalg.eigvals(H)
                        evals = evals[np.lexsort((evals.imag, evals.real))]
                    writer.writerows((N, P, i, f"{e.real:.15g}",
                                      f"{e.imag:.15g}")
                                     for i, e in enumerate(evals))
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert read_json(str(out) + ".meta.json")["params"]["hermitian"] \
            is hermitian
