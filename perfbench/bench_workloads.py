"""Seeded workloads of the hofchain benchmark and their output checks.

A workload is a sequence of rounds.  Round r is built from (seed, r) alone,
so the same seed gives the same inputs; every round of a workload has the
same mix of operations.  An operation is one timed call into hofchain plus
a check that the benchmark owns: it reads what the call returned or wrote
and tests it against the tolerances pinned in the README, without the
library's own residual helpers or pass flags.

A check returns ``(checks, diag)``.  ``checks`` is a list of
``(label, residual, tolerance)``; the operation passes when every residual
is at most its tolerance.  A tolerance of 0 marks an exact condition, for
which the residual is 0 or 1.  ``diag`` carries diagnostics that never fail
an operation.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from hofchain import baxter, bethe, cli, weylcore


class ReportedFailure(Exception):
    """The library reported a failure in its result instead of raising."""

    def __init__(self, cls: str, message: str):
        super().__init__(message)
        self.cls = cls


@dataclass
class Op:
    key: dict           # identifies the operation in failure records
    run: object         # () -> output; the only timed part
    check: object       # output -> (checks, diag)
    files: tuple = ()   # result files the call writes


def input_seed(seed: int, *path: int) -> int:
    """Independent 32-bit seed for one input of one round."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def exact(label: str, ok: bool):
    return (label, 0.0 if ok else 1.0, 0.0)


def call(module, name: str, *args):
    """Look the function up at call time, so a traced wrapper is used."""
    return getattr(module, name)(*args)


def _q_pow(N: int, e: int) -> complex:
    """q^e for q = exp(2 pi i (M+1) / N), the canonical square root of omega."""
    return complex(np.exp(2j * np.pi * (((N + 1) // 2 * e) % N) / N))


# ---------------------------------------------------------------- verify

VERIFY_N = (7, 9)
VERIFY_TOL = {"rll": 1e-10, "commutator": 1e-10, "baxter_action": 1e-9,
              "theorem1": 1e-9, "divisibility": 1e-7, "degeneracy": 1e-8}


def _run_verify(config, suite):
    """cmd_verify with its suite list narrowed to one suite."""
    saved = cli.VERIFY_SUITES
    cli.VERIFY_SUITES = [suite]
    try:
        return cli.cmd_verify(config)
    finally:
        cli.VERIFY_SUITES = saved


def _check_verify(path: str, name: str, rc):
    with open(path, encoding="utf-8") as fh:
        (rec,) = json.load(fh)["suites"]
    if rec["max_residual"] is None:
        # cmd_verify catches only GenericityError, after its redraws
        raise ReportedFailure("GenericityError", f"suite {name} gave up")
    return [(name, rec["max_residual"], VERIFY_TOL[name])], {}


def verify_round(seed: int, r: int, workdir: str) -> list:
    """The six verify suites at N = 7 and 9; one operation per suite and N."""
    ops = []
    for N in VERIFY_N:
        for i, suite in enumerate(cli.VERIFY_SUITES):
            name = suite[0]
            out = os.path.join(workdir, f"verify-{N}-{name}.json")
            config = cli.RunConfig(n_list=[N], seed=input_seed(seed, 1, r, N, i),
                                   out=out)
            ops.append(Op({"N": N, "suite": name},
                          partial(_run_verify, config, suite),
                          partial(_check_verify, out, name), (out,)))
    return ops


# ----------------------------------------------------------------- bethe

BETHE_N = (5, 7, 11, 15)
# solve_L3 raises PoleError or GenericityError on rare draws at N = 21, on
# some sectors at N = 25 and on most from N = 31 on (ROADMAP item 4).  A
# timed workload must not fail, so these sizes are solved once per traced
# run, untimed, as a record of the defect; see bethe_defect_ops.
DEFECT_N = (21, 25, 31, 41)
ORACLE_N = (5, 7)
RBEQ_TOL = 1e-10
ORACLE_TOL = 1e-8
ROOT_TOL = 1e-6


def bethe_equation_residual(sol, c, N: int) -> float:
    """Relative coefficient defect of Lambda Q = q^-m Pm Q(x/q) + q^m Pp Q(qx).

    Pm = prod(1 - x c_j / q), Pp = prod(1 + x c_j); normalised by the
    largest coefficient of either side.
    """
    m = sol.m
    Q = np.asarray(sol.Q.coeffs, dtype=complex)
    lam = np.asarray(sol.Lambda_poly.coeffs, dtype=complex)
    pm = pp = np.array([1.0 + 0j])
    for cj in c:
        pm = np.convolve(pm, [1.0, -cj * _q_pow(N, -1)])
        pp = np.convolve(pp, [1.0, cj])
    k = np.arange(len(Q))
    q_k = np.array([_q_pow(N, int(e)) for e in k])
    q_mk = np.array([_q_pow(N, -int(e)) for e in k])
    lhs = np.convolve(lam, Q)
    rhs = _q_pow(N, -m) * np.convolve(pm, Q * q_mk) \
        + _q_pow(N, m) * np.convolve(pp, Q * q_k)
    n = max(len(lhs), len(rhs))
    lhs = np.pad(lhs, (0, n - len(lhs)))
    rhs = np.pad(rhs, (0, n - len(rhs)))
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def root_relation_residual(sol, c, N: int) -> float:
    """Largest relative defect of the product relation at the roots.

    q^(L+2m+R) prod_j (z+c_j)/(qz-c_j) = prod_{n != l} (qz-z_n)/(z-q z_n),
    relative to the larger side; infinite where a factor has a pole.
    """
    z = np.asarray(sol.roots, dtype=complex)
    if len(z) == 0:
        return 0.0
    q = _q_pow(N, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lhs = _q_pow(N, len(c) + 2 * sol.m + len(z)) * np.prod(
            [(z + cj) / (q * z - cj) for cj in c], axis=0)
        ratio = (q * z[:, None] - z[None, :]) / (z[:, None] - q * z[None, :])
        np.fill_diagonal(ratio, 1.0)
        rhs = np.prod(ratio, axis=1)
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
    rel = np.where(np.isfinite(rel), rel, np.inf)
    return float(np.max(rel))


def _oracle_distance(lams, m: int, c, ctx) -> tuple:
    """Distance of the lambda multiset to the dense sector spectrum.

    Sector 2m of the x^2 pencil coefficient, scaled by q^-m, holds every
    lambda with multiplicity N.  Returns (largest distance, multiplicity ok).
    """
    N = ctx.N
    chain = baxter.DegenerateChain(tuple(c)).site_params(ctx)
    spec = _q_pow(N, -m) * bethe.oracle_spectrum(chain, (2 * m) % N, ctx)
    lams = np.asarray(lams)
    dist = np.abs(spec[:, None] - lams[None, :])
    far = max(dist.min(axis=0).max(), dist.min(axis=1).max())
    hits = np.bincount(dist.argmin(axis=1), minlength=len(lams))
    return float(far), bool(np.all(hits == N))


def _check_bethe(m: int, c, ctx, sols):
    N, M = ctx.N, ctx.M
    checks = [exact("solution_count", len(sols) == N),
              exact("degree", all(s.Q.degree == 3 * M - m for s in sols))]
    if sols:
        checks.append(("bethe_equation",
                       max(bethe_equation_residual(s, c, N) for s in sols),
                       RBEQ_TOL))
    if N in ORACLE_N:
        far, mult_ok = _oracle_distance([s.lam for s in sols], m, c, ctx)
        checks += [("oracle_lambda", far, ORACLE_TOL),
                   exact("oracle_multiplicity", mult_ok)]
    roots = max((root_relation_residual(s, c, N) for s in sols), default=0.0)
    return checks, {"root_rel_residual": roots}


def _bethe_ops(seed: int, r: int, n_list) -> list:
    """solve_L3 on every sector m of one chain draw per N."""
    ops = []
    for N in n_list:
        ctx = weylcore.make_context(N)
        rng = np.random.default_rng(input_seed(seed, 2, r, N))
        c = tuple(np.exp(2j * np.pi * rng.random(3)))
        for m in range(ctx.M + 1):
            ops.append(Op({"N": N, "draw": r, "m": m},
                          partial(call, bethe, "solve_L3", m, c, ctx),
                          partial(_check_bethe, m, c, ctx)))
    return ops


def bethe_round(seed: int, r: int, workdir: str) -> list:
    return _bethe_ops(seed, r, BETHE_N)


def bethe_defect_ops(seed: int) -> list:
    """Every sector of one chain draw at the sizes where solve_L3 fails."""
    return _bethe_ops(seed, 0, DEFECT_N)


# ---------------------------------------------------------------- curves

CURVES_N = (3, 5, 7)
DESCENT_TOL = 1e-8
ABCD_TOL = 1e-10


def _check_curves(path: str, N: int, rc):
    with open(path, encoding="utf-8") as fh:
        (rec,) = json.load(fh)["results"]
    ranks = rec["epsilon_ranks"]
    return [exact("sectors", sorted(map(int, ranks)) == list(range(N))),
            exact("epsilon_rank", all(v == N * N for v in ranks.values())),
            ("descent", rec["descended_residual_max"], DESCENT_TOL),
            ("abcd", rec["abcd_max_residual"], ABCD_TOL)], {}


def curves_round(seed: int, r: int, workdir: str) -> list:
    """cmd_curves with the default 2N^2 W-points; one chain draw per N."""
    ops = []
    for N in CURVES_N:
        out = os.path.join(workdir, f"curves-{N}.json")
        config = cli.RunConfig(n_list=[N], seed=input_seed(seed, 3, r, N), out=out)
        ops.append(Op({"N": N, "draw": r}, partial(call, cli, "cmd_curves", config),
                      partial(_check_curves, out, N), (out,)))
    return ops


# ------------------------------------------------------------- butterfly

BUTTERFLY_N = (31, 61, 101)
BUTTERFLY_TOL = 1e-10


def _check_butterfly(path: str, N: int, sq_norm: float, rc):
    spectra = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            spectra.setdefault(int(row["P"]), []).append(
                complex(float(row["energy_re"]), float(row["energy_im"])))
    coprime = [P for P in range(1, N) if math.gcd(P, N) == 1]
    worst_im = worst_sum = worst_sq = 0.0
    for E in map(np.asarray, spectra.values()):
        worst_im = max(worst_im, float(np.max(np.abs(E.imag))))
        worst_sum = max(worst_sum, abs(E.real.sum()) / np.abs(E.real).sum())
        # tr H^2 = 2N(mu^2 + nu^2 + rho^2) for unit-modulus alpha, beta, gamma
        want = 2 * N * sq_norm
        worst_sq = max(worst_sq, abs(float(E.real @ E.real) - want) / want)
    return [exact("fluxes", sorted(spectra) == coprime),
            exact("levels", all(len(E) == N for E in spectra.values())),
            ("imag", worst_im, BUTTERFLY_TOL),
            ("trace", worst_sum, BUTTERFLY_TOL),
            ("trace_sq", worst_sq, BUTTERFLY_TOL)], {}


def butterfly_round(seed: int, r: int, workdir: str) -> list:
    """cmd_butterfly over all coprime P; one operation per N."""
    rng = np.random.default_rng(input_seed(seed, 4, r))
    mu, nu, rho = (float(v) for v in 0.5 + rng.random(3))
    alpha, beta, gamma = (complex(v) for v in np.exp(2j * np.pi * rng.random(3)))
    ops = []
    for N in BUTTERFLY_N:
        out = os.path.join(workdir, f"butterfly-{N}.csv")
        config = cli.RunConfig(n_list=[N], seed=input_seed(seed, 4, r, N), out=out)
        ops.append(Op({"N": N, "draw": r},
                      partial(call, cli, "cmd_butterfly", config,
                              mu, nu, rho, alpha, beta, gamma),
                      partial(_check_butterfly, out, N, mu * mu + nu * nu + rho * rho),
                      (out, out + ".meta.json")))
    return ops


WORKLOADS = {
    "verify-dense": verify_round,
    "bethe-solve": bethe_round,
    "curves-small": curves_round,
    "butterfly-sweep": butterfly_round,
}

# Untimed operations that a traced run records as known failures.
DEFECT_RECORDS = {"bethe-solve": bethe_defect_ops}
