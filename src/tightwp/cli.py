"""Batch front door.

Subcommands: tau, poly, volumes, moments, cusps, spectrum, sample,
verify.  Exit codes: 0 success, 1 verify-suite failure, 2 user/domain
error, 3 monomial-budget refusal, 4 cache corruption.  All randomness is
seeded explicitly; reports are deterministic for a fixed RunConfig.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import mpmath
from mpmath import libmp, mp

from tightwp import boltzmann, intersection, moments, spectrum, tightpoly
from tightwp.errors import (BudgetError, CacheError, DomainError, ShapeError,
                            TwpError)
from tightwp.ring import DEFAULT_PREC, rat_to_str
from tightwp.tightpoly import PolyCache

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USER = 2
EXIT_BUDGET = 3
EXIT_CACHE = 4

CSV_DIGITS = 17


@dataclass(frozen=True)
class RunConfig:
    # the run's context: --budget, the store under --cache-dir if given,
    # and the cells and cusp pmfs the run builds
    cache: PolyCache
    precision: int
    format: str
    seed: int


def _fnum(x, digits: int = CSV_DIGITS) -> str:
    """Deterministic decimal rendering of an mpf at its own precision and
    of a float exactly, whatever the ambient precision."""
    if not hasattr(x, "_mpf_"):
        x = mp.make_mpf(libmp.from_float(float(x)))
    return mpmath.nstr(x, digits, strip_zeros=True)


def _emit(cfg: RunConfig, obj, rows=None, header=None, text_lines=None):
    """Render a result in the configured format.

    obj: JSON-able dict; rows/header: tabular view for csv; text_lines:
    human view (defaults to the JSON rendering).
    """
    if cfg.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    elif cfg.format == "csv":
        if rows is None:
            rows = [[json.dumps(obj)]]
            header = ["json"]
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    else:
        for line in (text_lines if text_lines is not None
                     else [json.dumps(obj, indent=2, sort_keys=True)]):
            print(line)


def _parse_indices(text: str):
    return tuple(int(x) for x in text.split(",") if x != "")


def _resolve_mu(cfg: RunConfig, args, required: bool = True):
    """--mu or --mu-gap (mu = mu_c - gap); gap wins when both appear."""
    gap = getattr(args, "mu_gap", None)
    if gap is not None:
        with mp.workprec(cfg.precision):
            return moments.mu_critical(cfg.precision) - mpmath.mpf(gap)
    if args.mu is None:
        if required:
            raise DomainError("supply --mu or --mu-gap")
        return None
    return args.mu


def cmd_tau(cfg: RunConfig, args) -> int:
    indices = _parse_indices(args.indices)
    value = intersection.intersection_number(args.genus, indices)
    with mp.workprec(cfg.precision):
        dec = _fnum(mpmath.mpf(int(value.numerator))
                    / int(value.denominator))
    obj = {"genus": args.genus, "indices": list(indices),
           "exact": rat_to_str(value), "decimal": dec,
           "precision": cfg.precision}
    _emit(cfg, obj, rows=[[args.genus, args.indices, rat_to_str(value), dec]],
          header=["genus", "indices", "exact", "decimal"],
          text_lines=[rat_to_str(value) if value else "0", f"= {dec}"])
    return EXIT_OK


def cmd_poly(cfg: RunConfig, args) -> int:
    cell = tightpoly.p_gn(args.genus, args.boundaries, cache=cfg.cache)
    problems = tightpoly.validate_cell_report(cell)
    verdict = ("symmetric ✓ graded ✓" if not problems
               else "INVALID: " + "; ".join(problems))
    obj = {"genus": args.genus, "boundaries": args.boundaries,
           "d": cell.d, "terms": cell.poly.to_obj(), "verdict": verdict}
    lines = [f"P_({args.genus},{args.boundaries})  D={cell.d}  "
             f"{len(cell.poly)} terms"]
    for ell, m, q in obj["terms"]:
        lines.append(f"  ell={ell} m={m}  {q}")
    lines.append(verdict)
    _emit(cfg, obj, text_lines=lines)
    return EXIT_OK


def cmd_volumes(cfg: RunConfig, args) -> int:
    g, n = args.genus, args.boundaries
    if args.pmax is not None:
        vols = moments.volume_extract(g, n, args.pmax, cache=cfg.cache)
        rows = [[p, json.dumps(v.to_obj()), _fnum(v.eval(cfg.precision))]
                for p, v in enumerate(vols)]
        obj = {"genus": g, "boundaries": n,
               "volumes": [{"p": p, "pi2_poly": v.to_obj(),
                            "decimal": _fnum(v.eval(cfg.precision))}
                           for p, v in enumerate(vols)],
               "precision": cfg.precision}
        _emit(cfg, obj, rows=rows, header=["p", "pi2_poly", "decimal"],
              text_lines=[f"V_({g},{n}+{p})(0) = {json.dumps(v.to_obj())} "
                          f"= {_fnum(v.eval(cfg.precision))}"
                          for p, v in enumerate(vols)])
        return EXIT_OK
    L = [float(x) for x in args.lengths.split(",")] if args.lengths else []
    if len(L) != n:
        raise DomainError(f"--L must supply {n} lengths")
    mu = _resolve_mu(cfg, args)
    t = boltzmann.t_value(g, n, L, mu, prec=cfg.precision, cache=cfg.cache)
    val = boltzmann.LogValue.from_number(t, cfg.precision)
    obj = {"genus": g, "boundaries": n, "L": L, "mu": _fnum(mu),
           "sign": val.sign, "log_magnitude": _fnum(val.log_magnitude),
           "value": _fnum(t), "precision": cfg.precision}
    _emit(cfg, obj,
          rows=[[g, n, obj["mu"], val.sign, _fnum(val.log_magnitude),
                 obj["value"]]],
          header=["genus", "boundaries", "mu", "sign", "log_magnitude",
                  "value"],
          text_lines=[f"T_({g},{n})({L}, mu={obj['mu']}) "
                      f"= {obj['value']}  (log {obj['log_magnitude']})"])
    return EXIT_OK


def cmd_moments(cfg: RunConfig, args) -> int:
    prec = cfg.precision
    mu = _resolve_mu(cfg, args)
    frame = moments.make_frame(mu, args.dmax, prec)
    obj = {"mu": _fnum(frame.mu), "r": _fnum(frame.r_value),
           "j0": _fnum(moments.find_j0(prec)),
           "mu_c": _fnum(moments.mu_critical(prec)),
           "alpha1": _fnum(moments.alpha1(prec)),
           "alpha2": _fnum(moments.alpha2(prec)),
           "moments": {f"M{k}": _fnum(v)
                       for k, v in enumerate(frame.moments)},
           "precision": prec}
    if args.order is not None:
        obj["series"] = {
            "R": [c.to_obj() for c in moments.r_series(args.order).coeffs()],
            "M0": [c.to_obj()
                   for c in moments.moment_series(0, args.order).coeffs()],
        }
    rows = [[k, _fnum(v)] for k, v in enumerate(frame.moments)]
    lines = [f"mu      = {obj['mu']}", f"R(mu)   = {obj['r']}",
             f"j0      = {obj['j0']}", f"mu_c    = {obj['mu_c']}",
             f"alpha1  = {obj['alpha1']}", f"alpha2  = {obj['alpha2']}"]
    lines += [f"M_{k}     = {_fnum(v)}"
              for k, v in enumerate(frame.moments)]
    if args.order is not None:
        lines.append(f"exact R series to order {args.order}: "
                     f"{obj['series']['R']}")
        lines.append(f"exact M0 series to order {args.order}: "
                     f"{obj['series']['M0']}")
    _emit(cfg, obj, rows=rows, header=["k", "Mk"], text_lines=lines)
    return EXIT_OK


def cmd_cusps(cfg: RunConfig, args) -> int:
    g = args.genus
    prec = cfg.precision
    if args.target is not None:
        res = boltzmann.solve_mu_for_target(g, args.target, prec=prec,
                                            cache=cfg.cache)
        obj = {"genus": g, "target": args.target, "mu": _fnum(res.mu),
               "seed_estimate": _fnum(res.seed), "mean": _fnum(res.mean),
               "precision": prec}
        _emit(cfg, obj,
              rows=[[g, args.target, obj["mu"], obj["seed_estimate"],
                     obj["mean"]]],
              header=["genus", "target", "mu", "seed_estimate", "mean"],
              text_lines=[f"mu            = {obj['mu']}",
                          f"seed estimate = {obj['seed_estimate']}",
                          f"achieved mean = {obj['mean']}"])
        return EXIT_OK
    mu = _resolve_mu(cfg, args, required=False)
    if mu is None:
        raise DomainError("cusps needs --mu, --mu-gap or --target")
    mean = boltzmann.mean_cusps(g, mu, prec, cfg.cache)
    m2 = boltzmann.factorial_moment(g, 1, mu, prec, cfg.cache)
    conc = boltzmann.concentration_ratio(g, mu, prec, cfg.cache)
    with mp.workprec(prec):
        muc = moments.mu_critical(prec)
        scale = 5 * g * muc / (2 * (muc - mpmath.mpf(mu)))
        targets = {"mean": +scale, "second_factorial_moment": +(scale ** 2)}
    obj = {"genus": g, "mu": _fnum(mu), "mean": _fnum(mean),
           "second_factorial_moment": _fnum(m2),
           "concentration_ratio": _fnum(conc),
           "asymptotic_targets": {k: _fnum(v) for k, v in targets.items()},
           "precision": prec}
    if args.pmax is not None:
        pmf = boltzmann.cusp_pmf(g, mu, args.pmax, prec, cfg.cache)
        obj["pmf"] = list(pmf.probs)
        obj["raw_mass"] = pmf.raw_mass
    with mp.workprec(prec):
        rows = [
            [g, _fnum(mu), "mean", _fnum(mean),
             _fnum(targets["mean"]), _fnum(mean / targets["mean"])],
            [g, _fnum(mu), "second_factorial_moment", _fnum(m2),
             _fnum(targets["second_factorial_moment"]),
             _fnum(m2 / targets["second_factorial_moment"])],
        ]
    _emit(cfg, obj, rows=rows,
          header=["g", "mu", "quantity", "value", "target", "ratio"],
          text_lines=[f"E[N]          = {obj['mean']}"
                      f"   (critical-scaling target {_fnum(targets['mean'])})",
                      f"E[(N)_2]      = {obj['second_factorial_moment']}",
                      f"Var/E^2       = {obj['concentration_ratio']}"])
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, args) -> int:
    windows = spectrum.IntervalSet.parse(args.windows)
    lo, _, hi = args.g_range.partition(":")
    if not (lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
        raise DomainError(f"--g-range must be lo:hi with integers "
                          f"0 <= lo <= hi, got {args.g_range!r}")
    g_range = range(int(lo), int(hi) + 1)
    if args.beta <= 2 and args.allow_beta:
        print(f"warning: beta={args.beta} is outside the limit regime "
              "(needs beta > 2); exploring anyway", file=sys.stderr)
    rows = spectrum.mp_convergence_table(
        g_range, args.beta, windows, prec=cfg.precision, cache=cfg.cache,
        allow_small_beta=args.allow_beta)
    header = ["g", "mu", "expected_count", "lambda_target", "ratio"]
    csv_rows = [[r["g"], _fnum(r["mu"]), _fnum(r["expected_count"]),
                 _fnum(r["lambda_target"]), _fnum(r["ratio"])]
                for r in rows]
    obj = {"beta": args.beta, "windows": args.windows,
           "rows": [{k: (v if k == "g" else _fnum(v))
                     for k, v in r.items()} for r in rows],
           "precision": cfg.precision}
    _emit(cfg, obj, rows=csv_rows, header=header,
          text_lines=["  ".join(header)] +
                     ["  ".join(str(x) for x in row) for row in csv_rows])
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args) -> int:
    if args.kind == "poisson":
        if args.t_max is None:
            raise DomainError("sample poisson needs --t-max")
        samples = [spectrum.sample_poisson_process(args.t_max,
                                                   seed=cfg.seed + i)
                   for i in range(args.count)]
        obj = {"kind": "poisson", "t_max": args.t_max, "seed": cfg.seed,
               "samples": [[_fnum(t, 17) for t in s.points]
                           for s in samples]}
        _emit(cfg, obj,
              rows=[[cfg.seed + i, len(s),
                     ";".join(_fnum(t, 17) for t in s.points)]
                    for i, s in enumerate(samples)],
              header=["seed", "count", "points"],
              text_lines=[f"seed {cfg.seed + i}: {len(s)} points: "
                          + ", ".join(_fnum(t, 8) for t in s.points)
                          for i, s in enumerate(samples)])
        return EXIT_OK
    if args.kind == "cusps":
        if args.genus is None:
            raise DomainError("sample cusps needs --genus and --mu")
        mu = _resolve_mu(cfg, args)
        draws = [spectrum.sample_cusp_count(args.genus, mu,
                                            seed=cfg.seed + i,
                                            prec=cfg.precision,
                                            cache=cfg.cache)
                 for i in range(args.count)]
        obj = {"kind": "cusps", "genus": args.genus, "mu": _fnum(mu),
               "seed": cfg.seed, "draws": draws}
        _emit(cfg, obj,
              rows=[[cfg.seed + i, d] for i, d in enumerate(draws)],
              header=["seed", "draw"],
              text_lines=[" ".join(str(d) for d in draws)])
        return EXIT_OK
    raise DomainError(f"unknown sample kind {args.kind!r}")


def cmd_verify(cfg: RunConfig, args) -> int:
    from tightwp import verify

    if cfg.precision != verify.PREC:
        raise DomainError(f"verify runs at its pinned precision of "
                          f"{verify.PREC} bits, not {cfg.precision}")
    results = verify.run_suite(args.suite, cache=cfg.cache,
                               mc_samples=args.mc_samples, seed=cfg.seed)
    report = {"suite": args.suite, "passed": all(r.passed for r in results),
              "criteria": [r.to_obj() for r in results]}
    rows, lines = [], []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}  "
                     f"({r.seconds:.1f}s)")
        for c in r.checks:
            rows.append([r.name, c.name, c.passed, c.measured, c.tolerance])
            lines.append(f"    {'ok ' if c.passed else 'FAIL'} {c.name}: "
                         f"{c.measured}  [{c.tolerance}]")
    lines.append(f"suite: {'PASS' if report['passed'] else 'FAIL'}")
    _emit(cfg, report, rows=rows,
          header=["criterion", "check", "passed", "measured", "tolerance"],
          text_lines=lines)
    if args.report_file:
        with open(args.report_file, "w") as fh:
            json.dump(report, fh, indent=2)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def _add_common(ap, suppress: bool):
    """Global options; accepted both before and after the subcommand."""
    d = argparse.SUPPRESS if suppress else None

    def dflt(v):
        return argparse.SUPPRESS if suppress else v

    ap.add_argument("--precision", type=int, default=dflt(DEFAULT_PREC),
                    help="binary float precision in bits (>= 53)")
    ap.add_argument("--format", choices=["text", "json", "csv"],
                    default=dflt("text"))
    ap.add_argument("--cache-dir",
                    default=dflt(os.environ.get("TWP_CACHE_DIR")),
                    help="cache directory (default: $TWP_CACHE_DIR)")
    ap.add_argument("--seed", type=int, default=dflt(0))
    ap.add_argument("--budget", type=int,
                    default=dflt(tightpoly.DEFAULT_BUDGET),
                    help="monomial-count budget per cell (>= 10^4)")


def _mu_options() -> argparse.ArgumentParser:
    """--mu and --mu-gap, a new parent parser per subcommand: children share
    their parents' options, so one's set_defaults would reach the others."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--mu-gap", type=float, default=None,
                   help="set mu = mu_c - gap instead of --mu")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    ap = argparse.ArgumentParser(
        prog="tightwp",
        description="Tight Weil-Petersson volumes, Boltzmann cusp "
                    "statistics and tight length-spectrum limit laws.")
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(
        dest="command", required=True,
        parser_class=lambda parents=(), **kw: argparse.ArgumentParser(
            parents=[common, *parents], **kw))

    p = sub.add_parser("tau", help="psi-class intersection number")
    p.add_argument("--genus", "-g", type=int, required=True)
    p.add_argument("--indices", required=True,
                   help="comma-separated tau indices, e.g. 2,2,3")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("poly", help="build and print P_{g,n}")
    p.add_argument("--genus", "-g", type=int, required=True)
    p.add_argument("--boundaries", "-n", type=int, required=True)
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("volumes", parents=[_mu_options()],
                       help="T_{g,n}(L, mu) or exact V_{g,n+p}(0)")
    p.add_argument("--genus", "-g", type=int, required=True)
    p.add_argument("--boundaries", "-n", type=int, required=True)
    p.add_argument("--L", dest="lengths", default="",
                   help="comma-separated boundary lengths")
    p.add_argument("--pmax", type=int, default=None,
                   help="extract exact volumes up to p cusps instead")
    p.set_defaults(fn=cmd_volumes, mu=0.0)

    p = sub.add_parser("moments", parents=[_mu_options()],
                       help="Bessel moment frame at mu")
    p.add_argument("--dmax", type=int, default=8)
    p.add_argument("--order", type=int, default=None,
                   help="also print the exact R and M0 series")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("cusps", parents=[_mu_options()],
                       help="cusp-count statistics")
    p.add_argument("--genus", "-g", type=int, required=True)
    p.add_argument("--target", type=float, default=None,
                   help="solve for mu with this mean cusp count")
    p.add_argument("--pmax", type=int, default=None,
                   help="also print the truncated pmf")
    p.set_defaults(fn=cmd_cusps)

    p = sub.add_parser("spectrum", help="expected-count convergence table")
    p.add_argument("--g-range", required=True, help="lo:hi inclusive")
    p.add_argument("--beta", type=float, required=True,
                   help="mu_g = mu_c - g^-beta (regime needs beta > 2)")
    p.add_argument("--windows", required=True, help="a1:b1:r1,a2:b2:r2,...")
    p.add_argument("--allow-beta", action="store_true",
                   help="explore beta <= 2 with a warning instead of "
                        "an error")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("sample", parents=[_mu_options()],
                       help="seeded Monte Carlo samplers")
    p.add_argument("--kind", choices=["poisson", "cusps"], required=True)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--genus", "-g", type=int, default=None)
    p.add_argument("--count", type=int, default=1,
                   help="number of samples (seeds seed, seed+1, ...)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=["fast", "full"], default="fast")
    p.add_argument("--report-file", default=None,
                   help="also write the JSON report here")
    p.add_argument("--mc-samples", type=int, default=100_000,
                   help="Monte Carlo sample count for the full suite "
                        "(seeds seed, seed+1, ...)")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.precision < 53:
        ap.error("--precision must be at least 53 bits")
    if args.budget < 10_000:
        ap.error("--budget must be at least 10^4")
    if getattr(args, "count", 1) < 1:
        ap.error("--count must be at least 1")
    if getattr(args, "mc_samples", 1) < 1:
        ap.error("--mc-samples must be at least 1")
    cache = PolyCache(args.cache_dir or None, args.budget)
    cfg = RunConfig(cache=cache, precision=args.precision,
                    format=args.format, seed=args.seed)
    try:
        # after the load the memo holds every row of the segment, so a run
        # that added no key leaves the file as it is
        stored = cache.load_tau()
        rc = args.fn(cfg, args)
        if intersection.cache_size() > stored:
            cache.save_tau()
        return rc
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except (DomainError, ShapeError, TwpError, ValueError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
