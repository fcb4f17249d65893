import csv
import json

import numpy as np
import pytest

from hofchain import PoleError, make_context, transfer_T
from hofchain import cli
from hofchain.cli import main
from hofchain.weylcore import Operator

from conftest import draw_chain


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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
        ra, rb = read_json(a), read_json(b)
        ra.pop("wall_time")
        rb.pop("wall_time")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_bad_sector(self, tmp_path):
        rc = main(["solve", "--N", "3", "--L", "3", "--m", "7",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2


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
        main(["butterfly", "--N", "3", "--seed", "42", "--out", str(out)])
        meta = read_json(str(out) + ".meta.json")
        assert meta["meta"]["seed"] == 42

    def test_rfc4180_header(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["butterfly", "--N", "3", "--out", str(out)])
        with open(out, "rb") as fh:
            first = fh.readline()
        assert first == b"N,P,index,energy_re,energy_im\r\n"


class TestCurvesCmd:
    def test_default_ranks(self, tmp_path):
        out = tmp_path / "curves.json"
        rc = main(["curves", "--N", "3", "--out", str(out)])
        assert rc == 0
        report = read_json(out)
        (res,) = report["results"]
        assert res["epsilon_ranks"] == {"0": 9, "1": 9, "2": 9}
        assert res["descended_residual_max"] < 1e-8
        assert res["abcd_max_residual"] < 1e-10

    def test_insufficient_points(self, tmp_path):
        rc = main(["curves", "--N", "3", "--points", "4",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_seed_robust_ranks(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["curves", "--N", "3", "--seed", "7", "--out", str(a)])
        main(["curves", "--N", "3", "--seed", "8", "--out", str(b)])
        ra, rb = read_json(a), read_json(b)
        assert ra["results"][0]["epsilon_ranks"] == rb["results"][0]["epsilon_ranks"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
