"""Command-line surface: verification suites, Bethe exports, butterfly data.

Subcommands
-----------
verify     run the identity/theorem suites for each N, write a JSON report
solve      solve the Bethe equation for L in {1,2,3}, export solutions
butterfly  sweep flux P/N and emit the Hamiltonian spectra as CSV
curves     sample the high-genus curve, rank and descent diagnostics

All randomness is drawn from the configured seed; reports embed N, P,
seed, tool version and the tolerance set, and complex numbers serialize
as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .weylcore import (GenericityError, make_context, sector_basis, unit_draws,
                       with_generic_redraw)
from .transfer import (ChainParams, SiteParams, commutator_residual,
                       hofstadter_hamiltonian, rll_residual, sector_pencil)
from .baxter import (DegenerateChain, RationalPoint, draw_regular_x,
                     plus_pairing_coeffs, sector_vectors, t_action_residual,
                     theorem1_ii_residual, u_weight)
from .bethe import (cluster_eigenvalues, oracle_spectrum, solve_L1, solve_L2,
                    solve_L3)
from .curves import (HofstadterChain3, abcd_polys, descended_t_residual,
                     draw_w_points, epsilon_rank)

DEFAULT_TOLERANCES = {
    "rll": 1e-10,
    "commutator": 1e-10,
    "baxter_action": 1e-9,
    "theorem1": 1e-9,
    "divisibility": 1e-7,
    "degeneracy": 1e-8,
    "identity": 1e-10,
    "descent": 1e-8,
}


@dataclass
class RunConfig:
    n_list: list
    P: int = 1
    seed: int = 20240001
    tolerances: dict = field(default_factory=dict)
    out: str = None

    def __post_init__(self):
        for N in self.n_list:
            make_context(N, self.P)     # odd N >= 3 and gcd(P, N) = 1
        for name, value in self.tolerances.items():
            if value <= 0:
                raise ValueError(f"tolerance {name!r} must be positive, got {value}")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


def c2j(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _meta(config: RunConfig) -> dict:
    return {
        "tool_version": __version__,
        "N_list": list(config.n_list),
        "P": config.P,
        "seed": config.seed,
        "tolerances": {k: config.tol(k) for k in sorted(DEFAULT_TOLERANCES)},
    }


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    raise TypeError(f"not JSON-serializable: {type(o)}")


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _attempt(fn, rng, record: dict, label: str):
    """Return with_generic_redraw(fn, rng), or None after recording the error.

    A ValueError (PoleError among them) or RuntimeError (GenericityError after
    its redraws) goes to record["error"] and to a FAIL line on stderr.
    """
    try:
        return with_generic_redraw(fn, rng)
    except (ValueError, RuntimeError) as exc:
        record["error"] = {"class": type(exc).__name__, "message": str(exc)}
        print(f"FAIL {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------- verify

def _suite_rll(ctx, rng):
    worst = 0.0
    for _ in range(20):
        a, b, c, d = unit_draws(rng, 4)
        x, xp = unit_draws(rng, 2)
        worst = max(worst, rll_residual(SiteParams(a, b, c, d), x, xp, ctx))
    return worst


def _suite_commutator(ctx, rng):
    worst = 0.0
    for L in (1, 2, 3):
        for _ in range(6):
            sites = tuple(SiteParams(*unit_draws(rng, 4)) for _ in range(L))
            x, xp = unit_draws(rng, 2)
            worst = max(worst, commutator_residual(ChainParams(sites), x, xp, ctx))
    return worst


def _suite_baxter_action(ctx, rng):
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    worst = 0.0
    for _ in range(4):
        x = draw_regular_x(rng, chain, ctx)
        for l in range(ctx.N):
            worst = max(worst, t_action_residual(chain, RationalPoint(x, l), ctx))
    return worst


def _suite_theorem1(ctx, rng):
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    worst = 0.0
    for _ in range(3):
        x = draw_regular_x(rng, chain, ctx)
        for l in range(ctx.N):
            vecs = sector_vectors(x, l, chain, ctx)
            ident = vecs["e_vec"] * u_weight(ctx.q_pow(1) * x, chain, ctx) \
                - vecs["o_vec"] * ctx.q_pow(l) * u_weight(x, chain, ctx)
            scale = max(1.0, float(np.max(np.abs(vecs["plus_vec"]))))
            worst = max(worst, float(np.max(np.abs(ident))) / scale)
            worst = max(worst, theorem1_ii_residual(chain, x, l, ctx))
    return worst


def _left_sector_eigvectors(chain, ctx, l):
    """Common left eigenvectors of the transfer family in dual sector l."""
    basis = sector_basis(ctx, chain.L, l)
    # e is an eigenvector of the transposed block iff e . conj(basis) is a left one
    evals, evecs = np.linalg.eig(sector_pencil(chain, ctx, l)[1].T)
    return list(zip(evals, evecs.T @ basis.conj()))


def _suite_divisibility(ctx, rng):
    """Plus-vector pairings vanish to order m at 0 and on x^N = c_j^{-N}."""
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    cp = chain.site_params(ctx)
    deg = (3 * ctx.M + 1) * 3
    worst = 0.0
    for m in range(ctx.M + 1):
        for l_sec, label in (((2 * m) % ctx.N, m), ((-2 * m) % ctx.N, (ctx.N - m) % ctx.N)):
            lam, phi = _left_sector_eigvectors(cp, ctx, l_sec)[0]
            coeffs = plus_pairing_coeffs(phi, label, chain, ctx, rng)
            scale = float(np.max(np.abs(coeffs)))
            if scale < 1e-8:
                raise GenericityError("pairing degenerated to zero")
            if m > 0:
                worst = max(worst, float(np.max(np.abs(coeffs[:m]))) / scale)
            bad = np.array([ctx.omega_pow(k) / cj for cj in chain.c
                            for k in range(ctx.N)])
            V = np.vander(bad, deg + 1, increasing=True)
            worst = max(worst, float(np.max(np.abs(V @ coeffs))) / scale)
    return worst


def _suite_degeneracy(ctx, rng):
    """Every sector-2m oracle eigenvalue has multiplicity exactly N (L = 3)."""
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    cp = chain.site_params(ctx)
    worst = 0.0
    for m in range(ctx.M + 1):
        spec = oracle_spectrum(cp, (2 * m) % ctx.N, ctx)
        clusters = cluster_eigenvalues(spec, gap=1e-6)
        if any(k != ctx.N for _, k in clusters):
            raise GenericityError(
                f"multiplicities {[k for _, k in clusters]} != {ctx.N}")
        spread = max(max(abs(v - mu) for v in spec if abs(v - mu) < 1e-6)
                     for mu, _ in clusters)
        worst = max(worst, spread)
    return worst


VERIFY_SUITES = [
    ("rll", _suite_rll),
    ("commutator", _suite_commutator),
    ("baxter_action", _suite_baxter_action),
    ("theorem1", _suite_theorem1),
    ("divisibility", _suite_divisibility),
    ("degeneracy", _suite_degeneracy),
]


def cmd_verify(config: RunConfig) -> int:
    """Run every suite at every N; a suite that raises fails on its own record.

    Each record carries its wall seconds and the process's peak memory.
    """
    import resource     # Unix only; imported here, not with the package

    t0 = time.time()
    report = {"meta": _meta(config), "suites": [], "pass": True}
    for N in config.n_list:
        ctx = make_context(N, config.P)
        for name, fn in VERIFY_SUITES:
            record = {"suite": name, "N": N, "tolerance": config.tol(name)}
            start = time.perf_counter()
            worst = _attempt(lambda r: float(fn(ctx, r)),
                             np.random.default_rng(config.seed), record,
                             f"{name} N={N}")
            ok = worst is not None and worst < record["tolerance"]
            record.update({
                "max_residual": worst, "pass": bool(ok),
                "wall_s": time.perf_counter() - start,
                "peak_rss_mb": resource.getrusage(   # ru_maxrss is in KiB
                    resource.RUSAGE_SELF).ru_maxrss / 1024})
            report["suites"].append(record)
            report["pass"] = bool(report["pass"] and ok)
            if not ok and worst is not None:
                print(f"FAIL invariant {name} at N={N}: "
                      f"residual {worst} >= {record['tolerance']}", file=sys.stderr)
    report["wall_time"] = time.time() - t0
    out = config.out or "report-verify.json"
    _write_json(out, report)
    return 0 if report["pass"] else 1


# ----------------------------------------------------------------- solve

def _solution_record(sol) -> dict:
    return {
        "m": sol.m,
        "lambda": c2j(sol.lam),
        "Lambda_coeffs": [c2j(z) for z in sol.Lambda_poly.coeffs],
        "Q_coeffs": [c2j(z) for z in sol.Q.coeffs],
        "Q_degree": sol.Q.degree,
        "roots": [c2j(z) for z in sol.roots],
        "rbeq_residual": sol.rbeq_residual,
        "ansatz_residuals": list(sol.ansatz_residuals),
    }


def cmd_solve(config: RunConfig, L: int, m_arg) -> int:
    """Solve the sectors at every N; an N that raises fails on its own record."""
    t0 = time.time()
    if L not in (1, 2, 3):
        raise ValueError("L must be 1, 2 or 3")
    for N in config.n_list:
        M = (N - 1) // 2
        if m_arg != "all" and not 0 <= int(m_arg) <= M:
            raise ValueError(f"m={m_arg} outside [0, {M}] at N={N}")
    report = {"meta": _meta(config), "L": L, "chains": [], "pass": True}
    for N in config.n_list:
        ctx = make_context(N, config.P)
        sectors = range(ctx.M + 1) if m_arg == "all" else [int(m_arg)]

        def run(rng):
            c = unit_draws(rng, L)
            records = []
            for m in sectors:
                if L == 1:
                    records.append(_solution_record(solve_L1(m, c[0], ctx)))
                elif L == 2:
                    for mp in range(ctx.M + 1):
                        rec = _solution_record(solve_L2(m, mp, c[0], c[1], ctx))
                        rec["m_prime"] = mp
                        records.append(rec)
                else:
                    for sol in solve_L3(m, tuple(c), ctx):
                        records.append(_solution_record(sol))
            return c, records

        entry = {"N": N}
        result = _attempt(run, np.random.default_rng(config.seed), entry,
                          f"solve N={N}")
        if result is not None:
            c, records = result
            entry.update({
                "c": [c2j(z) for z in c],
                "solutions": records,
                "residual_summary": {
                    "max_rbeq": max(r["rbeq_residual"] for r in records),
                    "count": len(records)},
            })
        report["chains"].append(entry)
        report["pass"] = report["pass"] and result is not None
    report["wall_time"] = time.time() - t0
    out = config.out or "report-solve.json"
    _write_json(out, report)
    return 0 if report["pass"] else 1


# ------------------------------------------------------------- butterfly

def cmd_butterfly(config: RunConfig, mu, nu, rho, alpha, beta, gamma) -> int:
    rows = []
    for N in sorted(config.n_list):
        for P in range(1, N):
            if math.gcd(P, N) != 1:
                print(f"warning: skipping non-coprime flux pair "
                      f"(N, P) = ({N}, {P})", file=sys.stderr)
                continue
            ctx = make_context(N, P)
            H = hofstadter_hamiltonian(ctx, mu, nu, rho, alpha, beta, gamma)
            evals = np.linalg.eigvals(H.mat)
            evals = evals[np.lexsort((evals.imag, evals.real))]
            for idx, e in enumerate(evals):
                rows.append((N, P, idx, e.real, e.imag))
    out = config.out or "butterfly.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "P", "index", "energy_re", "energy_im"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2],
                             f"{row[3]:.15g}", f"{row[4]:.15g}"])
    _write_json(out + ".meta.json", {"meta": _meta(config),
                                     "params": {"mu": c2j(mu), "nu": c2j(nu),
                                                "rho": c2j(rho),
                                                "alpha": c2j(alpha),
                                                "beta": c2j(beta),
                                                "gamma": c2j(gamma)}})
    return 0


# ---------------------------------------------------------------- curves

def cmd_curves(config: RunConfig, n_points: int = None) -> int:
    """Curve diagnostics at every N; an N that raises fails on its own record."""
    t0 = time.time()
    for N in config.n_list:
        if n_points is not None and n_points < N * N:
            raise ValueError(f"need at least N^2 = {N*N} sample points")
    report = {"meta": _meta(config), "results": [], "pass": True}
    for N in config.n_list:
        ctx = make_context(N, config.P)
        count = n_points if n_points is not None else 2 * N * N

        def run(rng):
            chain = HofstadterChain3(SiteParams(*unit_draws(rng, 4)),
                                     SiteParams(*unit_draws(rng, 4)))
            pts = draw_w_points(chain, ctx, rng, count)
            ranks = {l: epsilon_rank(l, pts, chain, ctx) for l in range(N)}
            desc = [descended_t_residual(p, chain, ctx) for p in pts[:20]]
            # ABCD consistency at L + 1 = 4 sampled y
            p = abcd_polys(chain.chain_params(), ctx)
            worst_abcd = 0.0
            for y in (1.0, 2.0, 3.0, 0.5):
                prod = np.eye(2, dtype=complex)
                for h in chain.chain_params().sites:
                    prod = prod @ np.array([[-h.a**N, y * h.b**N],
                                            [y * h.c**N, -h.d**N]])
                worst_abcd = max(worst_abcd, float(np.max(np.abs(
                    prod - np.array([[-p.A_poly(y), p.B_poly(y)],
                                     [p.C_poly(y), -p.D_poly(y)]])))))
            return ranks, desc, worst_abcd

        record = {"N": N, "pass": False}
        result = _attempt(run, np.random.default_rng(config.seed), record,
                          f"curves N={N}")
        if result is not None:
            ranks, desc, worst_abcd = result
            record.update({
                "epsilon_ranks": {str(l): ranks[l] for l in ranks},
                "descended_residual_max": max(desc),
                "descended_residual_count": len(desc),
                "abcd_max_residual": worst_abcd,
                "pass": bool(all(r == N * N for r in ranks.values())
                             and max(desc) < config.tol("descent")
                             and worst_abcd < config.tol("identity")),
            })
            bad = [l for l, r in ranks.items() if r != N * N]
            if bad:
                print(f"FAIL evaluation-map rank at N={N}, sectors {bad}",
                      file=sys.stderr)
        report["results"].append(record)
        report["pass"] = report["pass"] and record["pass"]
    report["wall_time"] = time.time() - t0
    out = config.out or "report-curves.json"
    _write_json(out, report)
    return 0 if report["pass"] else 1


# ------------------------------------------------------------------ main

def _parse_tol(items) -> dict:
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--tol expects name=value, got {item!r}")
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown tolerance {name!r}")
        out[name] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hofchain",
        description="Transfer-matrix / Bethe-equation toolkit for "
                    "Hofstadter-type quantum chains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flux=True, tol=True):
        p.add_argument("--N", action="append", type=int, required=True,
                       help="odd chain dimension, repeatable")
        if flux:
            p.add_argument("--P", type=int, default=1, help="root exponent")
        p.add_argument("--seed", type=int, default=20240001)
        if tol:
            p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                           help="override a tolerance, repeatable; names: "
                                + ", ".join(DEFAULT_TOLERANCES))
        p.add_argument("--out", default=None)

    common(sub.add_parser("verify", help="run the invariant suites"))

    p_solve = sub.add_parser("solve", help="solve the Bethe equation")
    common(p_solve, tol=False)
    p_solve.add_argument("--L", type=int, choices=(1, 2, 3), required=True)
    p_solve.add_argument("--m", default="all",
                         help="sector index or 'all' (default)")

    # butterfly sweeps every P coprime to N itself and checks no tolerance
    p_b = sub.add_parser("butterfly", help="emit flux-sweep spectra as CSV")
    common(p_b, flux=False, tol=False)
    p_b.add_argument("--mu", type=float, default=1.0)
    p_b.add_argument("--nu", type=float, default=1.0)
    p_b.add_argument("--rho", type=float, default=0.0)
    p_b.add_argument("--alpha", type=complex, default=1.0 + 0j)
    p_b.add_argument("--beta", type=complex, default=1.0 + 0j)
    p_b.add_argument("--gamma", type=complex, default=1.0 + 0j)

    p_c = sub.add_parser("curves", help="high-genus curve diagnostics")
    common(p_c)
    p_c.add_argument("--points", type=int, default=None,
                     help="W points per N (default 2N^2)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(n_list=args.N, P=getattr(args, "P", 1),
                           seed=args.seed, out=args.out,
                           tolerances=_parse_tol(getattr(args, "tol", None)))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "solve":
            return cmd_solve(config, args.L, args.m)
        if args.command == "butterfly":
            return cmd_butterfly(config, args.mu, args.nu, args.rho,
                                 args.alpha, args.beta, args.gamma)
        if args.command == "curves":
            return cmd_curves(config, n_points=args.points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
