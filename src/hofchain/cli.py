"""Command-line surface: verification suites, Bethe exports, butterfly data.

Subcommands
-----------
verify     run the identity/theorem suites for each N, write a JSON report
solve      solve the Bethe equation for L in {1,2,3}, export solutions
butterfly  sweep flux P/N and emit the Hamiltonian spectra as CSV
curves     sample the high-genus curve, rank and descent diagnostics

All randomness is drawn from the configured seed; reports embed the tool
version, N and the seed, P and tolerances their command read, and complex
numbers serialize as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .weylcore import (GenericityError, check_context, check_int, flux_roots,
                       is_int, make_context, sector_orbits, unit_draws,
                       with_generic_redraw, worst)
from .transfer import (ChainParams, SiteParams, commutant_reduction,
                       commutator_residual, fill_hamiltonian, flux_diagonals,
                       hamiltonian_params, rll_residual)
from .baxter import (DegenerateChain, draw_regular_x, plus_pairing_coeffs,
                     t_action_residual, theorem1_residual)
from .bethe import EIGEN_GAP, solve_L1, solve_L2, solve_L3
from .curves import (HofstadterChain3, abcd_polys, averaged_baxter,
                     descended_t_residual, draw_w_points, evaluation_ranks)

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

# a command refuses, before its first N runs, an N whose largest complex array
# would pass this: verify's one dense N^3 x N^3 transfer matrix (the commutator
# suite holds one at a time), curves' fiber-average outer product, solve
# --L 3's N (3M+4) x (3M+1) coefficient systems of sector 0 beside their
# SVD's U of the same shape, and butterfly's one 5-column CSV row per flux and
# level, whose text sets its peak (N x N Hamiltonians are far smaller)
DENSE_BYTES_MAX = 2**28
LARGEST_ARRAY = {"verify": lambda N: (N**3, N**3),                 # N <= 15
                 "curves": lambda N: (2 * N * N, N, N, N),         # N <= 23
                 "solve": lambda N: (N, (3 * N + 5) // 2, 3 * N - 1),   # 153
                 "butterfly": lambda N: (len(_fluxes(N)) * N, 5)}  # N <= 1845
BUTTERFLY_BLOCK = 1024  # CSV rows formatted at once: bounds the objects held
EIGVEC_GATE = 1e-10  # largest ||B^T v - mu v|| / max|B| of a divisibility pair


@dataclass
class RunConfig:
    n_list: list
    P: int = 1
    seed: int = 20240001
    tolerances: dict = field(default_factory=dict)
    out: str = None

    def __post_init__(self):
        if not isinstance(self.n_list, (list, tuple)):
            raise ValueError("n_list must be a list or tuple of N, got "
                             f"{self.n_list!r}")
        if not self.n_list:
            raise ValueError("n_list is empty: give at least one N")
        twice = sorted({N for N in self.n_list if self.n_list.count(N) > 1})
        if twice:   # each would run, and write its records, once per mention
            raise ValueError(f"N given more than once: {twice}")
        for N in self.n_list:
            check_context(N, self.P)    # builds no root table: N may be huge
        if not is_int(self.seed):   # numpy takes a sequence, the report no array
            check_int("seed", self.seed)
            raise ValueError(f"seed must be one integer, got {self.seed!r}")
        if self.seed < 0:   # numpy's generators take no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.tolerances, Mapping):
            raise ValueError("tolerances must map names to values, got "
                             f"{self.tolerances!r}")
        for name, value in self.tolerances.items():
            if not (isinstance(value, numbers.Real) and not isinstance(
                    value, bool) and 0 < value < math.inf):
                raise ValueError(f"tolerance {name!r} must be positive and "
                                 f"finite, got {value!r}")
        if not isinstance(self.out, (str, os.PathLike, type(None))):
            raise ValueError(f"out must be a path, got {self.out!r}")
        # a report that cannot be written would fail after every N has run
        if self.out and os.path.isdir(self.out):
            raise ValueError(f"--out {self.out!r} is a directory")
        if self.out and not os.path.isdir(os.path.dirname(
                os.path.abspath(self.out))):
            raise ValueError(f"--out {self.out!r}: no such directory")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


def c2j(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# the tolerances each command gates on: --tol accepts and meta echoes these
# names and no others.  verify's are its suite names, looked up when it runs,
# because a caller may narrow VERIFY_SUITES
TOLERANCES_READ = {
    "verify": lambda: [name for name, _ in VERIFY_SUITES],
    "solve": lambda: [],
    "butterfly": lambda: [],
    "curves": lambda: ["descent", "identity"],
}


def _meta(config: RunConfig, command: str) -> dict:
    """Echo the inputs a command read: the seed, P and its tolerances.  Every
    command calls it before its first N, refusing a tolerance it does not read."""
    read = TOLERANCES_READ[command]()
    for name in config.tolerances:
        if name not in read:
            raise ValueError(f"unknown tolerance {name!r} for {command}")
    return {"tool_version": __version__, "N_list": list(config.n_list),
            "seed": config.seed, "P": config.P,
            "tolerances": {k: config.tol(k) for k in sorted(read)}}


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    raise TypeError(f"not JSON-serializable: {type(o)}")


def _write_json(path: str, payload: dict):
    """Serialize first, so a value `_json_default` refuses leaves no file."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _finish(config: RunConfig, command: str, report: dict, t0: float) -> int:
    """Write report-<command>.json (or --out); exit 0 iff the report passed."""
    report["wall_time"] = time.time() - t0
    _write_json(config.out or f"report-{command}.json", report)
    return 0 if report["pass"] else 1


def _refuse_oversized(command: str, n_list):
    """Refuse an N whose LARGEST_ARRAY would pass DENSE_BYTES_MAX."""
    for N in n_list:
        shape = LARGEST_ARRAY[command](N)
        if 16 * math.prod(shape) > DENSE_BYTES_MAX:
            raise ValueError(f"{command} at N={N} needs dense "
                             f"{' x '.join(map(str, shape))} arrays of "
                             f"{16 * math.prod(shape) / 1e9:.3g} GB (limit "
                             f"{DENSE_BYTES_MAX / 1e9:.3g} GB)")


def _attempt(fn, config: RunConfig, record: dict, label: str):
    """Return with_generic_redraw(fn, rng) at the config's seed, or None.

    record gets attempts (the calls of fn, redraws included) on success, the
    error of a ValueError, RuntimeError or MemoryError (and a FAIL line on
    stderr) on failure, and wall_s and peak_rss_mb (the process peak) either
    way.  Only a GenericityError is retried.
    """
    import resource     # Unix only; imported here, not with the package

    calls = []
    start = time.perf_counter()
    try:
        out = with_generic_redraw(lambda r: calls.append(r) or fn(r),
                                  np.random.default_rng(config.seed))
    except (ValueError, RuntimeError, MemoryError) as exc:
        record["error"] = {"class": type(exc).__name__, "message": str(exc)}
        print(f"FAIL {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        out = None
    else:
        record["attempts"] = len(calls)
    record.update(wall_s=time.perf_counter() - start,
                  peak_rss_mb=resource.getrusage(   # ru_maxrss is in KiB
                      resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


# ---------------------------------------------------------------- verify

def _suite_rll(ctx, rng):
    # each draw's a, b, c, d, then its x, x': the order of 20 separate draws
    draws = unit_draws(rng, 120).reshape(20, 6)
    return worst(rll_residual([SiteParams(*d) for d in draws[:, :4]],
                              draws[:, 4], draws[:, 5], ctx))


def _suite_commutator(ctx, rng):
    return worst(commutator_residual(
        ChainParams(tuple(SiteParams(*unit_draws(rng, 4)) for _ in range(L))),
        *unit_draws(rng, 2), ctx) for L in (1, 2, 3) for _ in range(6))


def _suite_baxter_action(ctx, rng):
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    xs = [draw_regular_x(rng, chain, ctx) for _ in range(4)]
    return worst(t_action_residual(chain, np.array(xs)[:, None],
                                   np.arange(ctx.N), ctx).ravel())


def _suite_theorem1(ctx, rng):
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    xs = np.array([draw_regular_x(rng, chain, ctx) for _ in range(3)])
    return theorem1_residual(chain, xs, np.arange(ctx.N), ctx)


def sector_left_eigenvectors(chain: ChainParams, ctx, ls) -> tuple:
    """(mu, v, residual, gap, commutant) per sector of ls: mu the largest-|mu|
    eigenvalue of R_l from one eig of the R_l^T stack, v and the rest from
    `commutant_reduction`'s lift, gap min |mu - lam| / |mu| over the others."""
    R, commutant, lift = commutant_reduction(chain, ctx, ls)
    lam, U = np.linalg.eig(R.transpose(0, 2, 1))
    rows, k = np.arange(len(R)), np.argmax(np.abs(lam), axis=1)
    mu = lam[rows, k]
    v, res = lift(mu, U[rows, :, k])
    gap = np.abs(lam / mu[:, None] - 1)
    gap[rows, k] = np.inf
    return mu, v, res, np.min(gap, axis=1), commutant


def _first_near_min(values) -> int:
    """The first index whose value is within 1e-9 relative of the minimum, so
    that values which tie up to roundoff name the same index every run."""
    return int(np.argmax(values <= np.min(values) * (1 + 1e-9)))


def _suite_divisibility(ctx, rng):
    """Plus-vector pairings vanish to order m at 0 and on x^N = c_j^{-N}.

    Returns (residual, evidence): the worst (l_sec, label) pair, the largest
    eigenvector residual, the smallest relative gap of R_l at mu and the
    largest commutant residuals."""
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    cp = chain.site_params(ctx)
    bad = np.array([ctx.omega_pow(k) / cj for cj in chain.c
                    for k in range(ctx.N)])
    # sector 2m with label m and sector -2m with label -m; m = 0 gives one pair
    pairs = {((s * 2 * m) % ctx.N, (s * m) % ctx.N): m
             for m in range(ctx.M + 1) for s in (1, -1)}
    keys, (ls, labels) = list(pairs), np.array(list(pairs)).T
    # T_0 is a scalar on the sector, so an eigenvector of the T_2 block is
    # one of the family; a left one, scattered, pairs with |x>^+
    _, v, ratios, gaps, commutant = sector_left_eigenvectors(cp, ctx, ls)
    i = np.argmax(~(ratios <= EIGVEC_GATE))     # the first pair that fails
    if not ratios[i] <= EIGVEC_GATE:
        raise GenericityError(f"(l_sec, label) = {keys[i]}: left eigenvector "
                              f"residual {ratios[i]:.3g} > gate {EIGVEC_GATE}")
    orbit, amp = sector_orbits(ctx, cp.L, ls)
    coeffs = plus_pairing_coeffs(v[:, orbit] * amp.conj(), labels, chain, ctx,
                                 rng)
    res = []
    for ((l_sec, label), m), c in zip(pairs.items(), coeffs):
        scale = float(np.max(np.abs(c)))
        if scale < 1e-8:
            raise GenericityError(f"(l_sec, label) = ({l_sec}, {label}): "
                                  "pairing degenerated to zero")
        res.append(worst([np.max(np.abs(c[:m]), initial=0.0) / scale,
                          np.max(np.abs(np.polyval(c[::-1], bad))) / scale]))
    s1, s2, inv = commutant.T
    return worst(res), {
        "worst_pair": list(keys[np.argmax(res)]),
        "eigvec_residual": worst(ratios), "min_rel_gap": float(np.min(gaps)),
        "min_gap_pair": list(keys[_first_near_min(gaps)]),
        "s1_commutator": worst(s1), "s2_commutator": worst(s2),
        "invariance_residual": worst(inv)}


def _suite_degeneracy(ctx, rng):
    """Every T_2 eigenvalue of every sector has multiplicity exactly N (L = 3).

    Each block is I_N (x) R_l by the commutant (`commutant_reduction`), so the
    claim holds when the block commutes with S_1 and S_2, to the residuals,
    and R_l has N distinct eigenvalues, to a relative gap of EIGEN_GAP; a
    smaller gap is a GenericityError.  Returns (residual, evidence)."""
    chain = DegenerateChain(tuple(unit_draws(rng, 3)))
    ls = np.arange(ctx.N)
    R, res, _ = commutant_reduction(chain.site_params(ctx), ctx, ls)
    lam = np.linalg.eigvals(R)
    dist = np.abs(lam[:, :, None] - lam[:, None]) + np.diag([np.inf] * ctx.N)
    gaps = np.min(dist, axis=(1, 2)) / np.max(np.abs(lam), axis=1)
    l = np.argmax(~(gaps >= EIGEN_GAP))         # the first sector that fails
    if not gaps[l] >= EIGEN_GAP:
        raise GenericityError(f"sector {l}: eigenvalues of R_l have "
                              f"relative gap {gaps[l]:.3g} < {EIGEN_GAP}")
    return worst(res.ravel()), {
        "worst_sector": int(np.argmax(res.max(axis=1))),
        "min_rel_gap": float(np.min(gaps)),
        "min_gap_sector": _first_near_min(gaps),
        "s1_commutator": worst(res[:, 0]), "s2_commutator": worst(res[:, 1])}


VERIFY_SUITES = [
    ("rll", _suite_rll),
    ("commutator", _suite_commutator),
    ("baxter_action", _suite_baxter_action),
    ("theorem1", _suite_theorem1),
    ("divisibility", _suite_divisibility),
    ("degeneracy", _suite_degeneracy),
]


def _suite_result(out) -> tuple:
    """(residual, evidence) of a suite that returns a residual or that pair."""
    res, evidence = out if isinstance(out, tuple) else (out, None)
    return float(res), evidence


def cmd_verify(config: RunConfig) -> int:
    """Run every suite at every N; a suite that raises fails on its own record.

    An N whose arrays would pass DENSE_BYTES_MAX is refused first.  A suite
    that returns (residual, evidence) gets its evidence in the record.
    """
    _refuse_oversized("verify", config.n_list)
    t0 = time.time()
    report = {"meta": _meta(config, "verify"), "suites": [], "pass": True}
    for N in config.n_list:
        ctx = make_context(N, config.P)
        for name, fn in VERIFY_SUITES:
            record = {"suite": name, "N": N, "tolerance": config.tol(name)}
            res, evidence = _attempt(
                lambda r: _suite_result(fn(ctx, r)), config, record,
                f"{name} N={N}") or (None, None)
            ok = res is not None and res < record["tolerance"]
            record.update({"max_residual": res, "pass": bool(ok)})
            if evidence is not None:
                record["evidence"] = evidence
            report["suites"].append(record)
            report["pass"] = bool(report["pass"] and ok)
            if not ok and res is not None:
                print(f"FAIL invariant {name} at N={N}: "
                      f"residual {res} >= {record['tolerance']}", file=sys.stderr)
    return _finish(config, "verify", report, t0)


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
    if not is_int(L) or L not in (1, 2, 3):
        raise ValueError(f"L must be 1, 2 or 3, got {L!r}")
    if m_arg != "all":
        try:    # the CLI passes the flag's text; a library caller, an int
            if not isinstance(m_arg, str) and not is_int(m_arg):
                raise ValueError
            m_arg = int(m_arg)
        except ValueError:
            raise ValueError("--m takes an integer in [0, M] or 'all', got "
                             f"{m_arg!r}") from None
    for N in config.n_list:
        M = (N - 1) // 2
        if m_arg != "all" and not 0 <= m_arg <= M:
            raise ValueError(f"m={m_arg} outside [0, {M}] at N={N}")
    if L == 3:
        _refuse_oversized("solve", config.n_list)
    report = {"meta": _meta(config, "solve"), "L": L, "chains": [],
              "pass": True}
    for N in config.n_list:
        ctx = make_context(N, config.P)
        sectors = range(ctx.M + 1) if m_arg == "all" else [m_arg]

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
        result = _attempt(run, config, entry, f"solve N={N}")
        if result is not None:
            c, records = result
            entry.update({
                "c": [c2j(z) for z in c],
                "solutions": records,
                "residual_summary": {
                    "max_rbeq": worst(r["rbeq_residual"] for r in records),
                    "count": len(records)},
            })
        report["chains"].append(entry)
        report["pass"] = report["pass"] and result is not None
    return _finish(config, "solve", report, t0)


# ------------------------------------------------------------- butterfly

def _fluxes(N: int) -> list:
    """The P of the butterfly sweep at N: every P in [1, N) coprime to N."""
    return [p for p in range(1, N) if math.gcd(p, N) == 1]


def _spectrum(H: np.ndarray, hermitian: bool) -> np.ndarray:
    if hermitian:
        return np.linalg.eigvalsh(H)    # ascending, real
    evals = np.linalg.eigvals(H)
    return evals[np.lexsort((evals.imag, evals.real))]


def _energies(N: int, fluxes: list, params: tuple,
              hermitian: bool) -> np.ndarray:
    """The (flux, level) energies at N.  The diagonals come max(1,
    BUTTERFLY_BLOCK // N) fluxes at a time, and each flux's are written
    into one N x N buffer, freed on return, before its eigensolve."""
    H = np.zeros((N, N), dtype=complex)     # only the diagonals change
    evals = np.empty((len(fluxes), N), float if hermitian else complex)
    step = max(1, BUTTERFLY_BLOCK // N)
    for start in range(0, len(fluxes), step):
        diags = flux_diagonals(flux_roots(N, fluxes[start:start + step]),
                               params)
        for i, d in enumerate(diags, start):
            evals[i] = _spectrum(fill_hamiltonian(H, d), hermitian)
    return evals


def cmd_butterfly(config: RunConfig, mu, nu, rho, alpha, beta, gamma) -> int:
    """Write every N's spectra, one row per (P, level), formatted
    BUTTERFLY_BLOCK rows at a time.  An N whose rows would pass
    DENSE_BYTES_MAX is refused first, then the parameters, once."""
    # H is Hermitian for real mu, nu, rho and unit alpha, beta, gamma; 4 eps
    # admits exp(2 pi i r), which rounds one ulp off the unit circle
    hermitian = (all(complex(v).imag == 0 for v in (mu, nu, rho)) and all(
        abs(abs(v) - 1) <= 4 * np.finfo(float).eps for v in (alpha, beta, gamma)))
    meta = _meta(config, "butterfly")
    _refuse_oversized("butterfly", config.n_list)
    params = hamiltonian_params(mu, nu, rho, alpha, beta, gamma)
    blocks = ["N,P,index,energy_re,energy_im\r\n"]
    for N in sorted(config.n_list):
        fluxes = _fluxes(N)     # energy r below belongs to flux r // N
        evals = _energies(N, fluxes, params, hermitian).ravel()
        if not np.isfinite(evals).all():
            raise ValueError(f"butterfly at N={N}: an energy overflows")
        for start in range(0, evals.size, BUTTERFLY_BLOCK):
            # columns N, P, index, re, im as Python ints and floats
            r = np.arange(start, min(start + BUTTERFLY_BLOCK, evals.size))
            table = np.empty((len(r), 5), dtype=object)
            table[:, 0], table[:, 1] = N, np.take(fluxes, r // N)
            table[:, 2] = r % N
            table[:, 3], table[:, 4] = evals[r].real, evals[r].imag
            blocks.append("%d,%d,%d,%.15g,%.15g\r\n" * len(r)
                          % tuple(table.ravel()))
    out = config.out or "butterfly.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(blocks)
    # the sidecar echoes no seed, P or tolerance: butterfly reads none
    _write_json(out + ".meta.json", {
        "meta": {k: meta[k] for k in ("tool_version", "N_list")},
        "params": {"mu": c2j(mu), "nu": c2j(nu), "rho": c2j(rho),
                   "alpha": c2j(alpha), "beta": c2j(beta),
                   "gamma": c2j(gamma), "hermitian": hermitian}})
    return 0


# ---------------------------------------------------------------- curves

def cmd_curves(config: RunConfig) -> int:
    """Curve diagnostics on 2N^2 W-points per N; an N that raises fails alone."""
    _refuse_oversized("curves", config.n_list)
    t0 = time.time()
    report = {"meta": _meta(config, "curves"), "results": [], "pass": True}
    for N in config.n_list:
        ctx = make_context(N, config.P)

        def run(rng):
            chain = HofstadterChain3(SiteParams(*unit_draws(rng, 4)),
                                     SiteParams(*unit_draws(rng, 4)))
            pts = draw_w_points(chain, ctx, rng, 2 * N * N)
            ranks = evaluation_ranks(averaged_baxter(*pts, chain, ctx,
                                                     "evaluation"), ctx)
            desc = descended_t_residual(chain, *pts[:, :20], ctx)
            # ABCD consistency at L + 1 = 4 sampled y
            P = abcd_polys(chain.chain_params(), ctx)
            abcd = []
            for y in (1.0, 2.0, 3.0, 0.5):
                prod = np.eye(2, dtype=complex)
                for h in chain.chain_params().sites:
                    prod = prod @ np.array([[-h.a**N, y * h.b**N],
                                            [y * h.c**N, -h.d**N]])
                abcd.append(float(np.max(np.abs(
                    prod - np.polyval(P[::-1], y)))))
            return ranks, worst(desc), len(desc), worst(abcd)

        record = {"N": N, "pass": False}
        result = _attempt(run, config, record, f"curves N={N}")
        if result is not None:
            ranks, worst_desc, count, worst_abcd = result
            bad = [l for l, r in enumerate(ranks) if r != N * N]
            failed = [(g, res) for g, res in (("descent", worst_desc),
                                              ("identity", worst_abcd))
                      if not res < config.tol(g)]
            record.update({
                "epsilon_ranks": {str(l): r for l, r in enumerate(ranks)},
                "descended_residual_max": worst_desc,
                "descended_residual_count": count,
                "abcd_max_residual": worst_abcd,
                "pass": not bad and not failed,
            })
            if bad:
                print(f"FAIL evaluation-map rank at N={N}, sectors {bad}",
                      file=sys.stderr)
            for g, res in failed:
                print(f"FAIL {g} at N={N}: residual {res} >= {config.tol(g)}",
                      file=sys.stderr)
        report["results"].append(record)
        report["pass"] = report["pass"] and record["pass"]
    return _finish(config, "curves", report, t0)


# ------------------------------------------------------------------ main

def _parse_tol(items) -> dict:
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--tol expects name=value, got {item!r}")
        if name in out:     # the last value would silently win
            raise ValueError(f"tolerance {name!r} given more than once")
        out[name] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hofchain",
        description="Transfer-matrix / Bethe-equation toolkit for "
                    "Hofstadter-type quantum chains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, command, draws=True):
        p.add_argument("--N", action="append", type=int, required=True,
                       help="odd chain dimension, repeatable")
        if draws:
            p.add_argument("--P", type=int, default=1, help="root exponent")
            p.add_argument("--seed", type=int, default=20240001)
        if TOLERANCES_READ[command]():
            p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                           help="override a tolerance, repeatable; names: "
                                + ", ".join(TOLERANCES_READ[command]()))
        p.add_argument("--out", default=None)

    common(sub.add_parser("verify", help="run the invariant suites"), "verify")

    p_solve = sub.add_parser("solve", help="solve the Bethe equation")
    common(p_solve, "solve")
    p_solve.add_argument("--L", type=int, choices=(1, 2, 3), required=True)
    p_solve.add_argument("--m", default="all",
                         help="sector index or 'all' (default)")

    # butterfly sweeps every P coprime to N itself and draws nothing
    p_b = sub.add_parser("butterfly", help="emit flux-sweep spectra as CSV")
    common(p_b, "butterfly", draws=False)
    p_b.add_argument("--mu", type=float, default=1.0)
    p_b.add_argument("--nu", type=float, default=1.0)
    p_b.add_argument("--rho", type=float, default=0.0)
    p_b.add_argument("--alpha", type=complex, default=1.0 + 0j)
    p_b.add_argument("--beta", type=complex, default=1.0 + 0j)
    p_b.add_argument("--gamma", type=complex, default=1.0 + 0j)

    common(sub.add_parser("curves", help="high-genus curve diagnostics"),
           "curves")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            n_list=args.N, out=args.out,
            tolerances=_parse_tol(getattr(args, "tol", None)),
            **{k: v for k, v in vars(args).items() if k in ("P", "seed")})
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
            return cmd_curves(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
