"""Command-line surface: semitall-rank <subcommand> [flags].

Subcommands: alpha, divisors, classify, table, solve, certify,
experiment (perturb|global), selftest.  JSON is the canonical output
(floats at 17 significant digits); CSV is available for table only.
Reports echo every seed and tolerance needed to reproduce them; rerunning
with the printed flags yields byte-identical output apart from the
elapsed_s timing field.

Exit codes: 0 success, 1 domain/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import acceptance, certifier, classifier, jsonio, polyfactor, solver, tensorcore
from .errors import ChartViolationError, DegenerateStartError, ResourceLimitError


# Flags echoed under "params" in every report, in this order.
_PARAMS = ("m", "n", "p", "eps", "trials", "seed", "tol", "input", "mode")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="semitall-rank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, mode_choices=None):
        p = sub.add_parser(name, help=help_)
        if mode_choices:
            p.add_argument("mode", choices=mode_choices)
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--eps", type=float)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float)
        p.add_argument("--input", type=str)
        p.add_argument("--output", type=str)
        p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
        return p

    add("alpha", "count the real monic degree-(m-1) divisors of y^(m+n-2)+1")
    add("divisors", "list those divisors and their variety points")
    add("classify", "typical-rank verdict for one format (p defaults to the critical value)")
    add("table", "verdict table over all 3 <= m <= n up to the given bounds")
    add("solve", "track all start paths to a target tensor (file, or a seeded perturbation)")
    add("certify", "rank-p certificate for an n x p x m tensor file")
    add("experiment", "seeded Monte Carlo certification experiments", mode_choices=["perturb", "global"])
    add("selftest", "run the acceptance criteria and report pass/fail per criterion")
    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [x for x in names if getattr(args, x) is None]
    if missing:
        raise ValueError(f"{args.command} requires {', '.join('--' + x for x in missing)}")


def _solution_doc(s: solver.Solution) -> dict:
    return {
        "a": [complex(v) for v in s.a],
        "b": [complex(v) for v in s.b],
        "residual": s.residual,
        "is_real": bool(s.is_real),
        "source": list(s.source) if isinstance(s.source, tuple) else s.source,
        "path_index": s.path_index,
    }


def _cmd_alpha(args: argparse.Namespace):
    _require(args, "m", "n")
    a = polyfactor.alpha_closed(args.m, args.n)
    p = (args.m - 1) * (args.n - 1) + 1
    return {"m": args.m, "n": args.n, "u": args.m + args.n - 2, "alpha": a, "p": p, "alpha_lt_p": a < p}, 0


def _cmd_divisors(args: argparse.Namespace):
    _require(args, "m", "n")
    u, d = args.m + args.n - 2, args.m - 1
    divisors = polyfactor.real_divisors(u, d)
    docs = []
    for h in divisors:
        docs.append({
            "coefficients_low_to_high": [float(c.real) for c in h.coeffs],
            "variety_point": polyfactor.divisor_to_point(h, args.m),
        })
    return {"m": args.m, "n": args.n, "u": u, "degree": d, "count": len(divisors), "divisors": docs}, 0


def _cmd_classify(args: argparse.Namespace):
    _require(args, "m", "n")
    p = args.p if args.p is not None else (args.m - 1) * (args.n - 1) + 1
    v = classifier.classify(args.m, args.n, p)
    return _verdict_doc(v), 0


def _verdict_doc(v: classifier.Verdict) -> dict:
    return {
        "m": v.m, "n": v.n, "p": v.p,
        "verdict": v.kind,
        "typical_ranks": list(v.ranks),
        "reasons": list(v.reasons),
        "grank": v.grank,
        "alpha": v.alpha,
        "bit_disjoint": v.bit_disjoint,
    }


def _cmd_table(args: argparse.Namespace):
    _require(args, "m", "n")
    rows = classifier.theorem_table(args.m, args.n)
    return {"m_max": args.m, "n_max": args.n, "rows": [_verdict_doc(v) for v in rows]}, 0


def _cmd_solve(args: argparse.Namespace):
    if args.input:
        target = tensorcore.load_tensor(args.input)
        u, n, m = target.shape
        fmt = tensorcore.Format(m, n)
        if u != fmt.u:
            raise ValueError(f"target tensor shape {target.shape} has u = {u}, expected {fmt.u}")
    else:
        _require(args, "m", "n")
        frame = tensorcore.make_start_frame(args.m, args.n)
        if args.eps:
            rng = np.random.default_rng(args.seed)
            target = tensorcore.Tensor3(frame.Aprime.data + args.eps * rng.standard_normal(frame.Aprime.shape))
        else:
            target = frame.Aprime
    opts = solver.TrackOptions() if args.tol is None else solver.TrackOptions(corrector_tol=args.tol)
    report = solver.solve_all(target, opts, seed=args.seed)
    doc = {
        "m": report.m, "n": report.n,
        "n_paths": report.n_paths,
        "real_count": report.real_count,
        "gamma": report.gamma,
        "chart_b": report.chart_b,
        "solutions": [_solution_doc(s) for s in report.solutions],
        "failures": [{"index": f.index, "reason": f.reason, "detail": f.detail} for f in report.failures],
    }
    return doc, (0 if report.complete else 2)


def _cmd_certify(args: argparse.Namespace):
    _require(args, "input")
    T = tensorcore.load_tensor(args.input)
    opts = certifier.CertifyOptions(seed=args.seed)
    if args.tol is not None:
        opts.span_tol = args.tol
    cert = certifier.certify(T, opts)
    doc = {
        "verdict": cert.verdict,
        "m": cert.m, "n": cert.n, "p": cert.p,
        "dim_u": cert.dim_u,
        "real_points": cert.real_points,
        "n_paths": cert.n_paths,
        "paths_failed": cert.paths_failed,
        "tolerances": cert.tolerances,
        "notes": cert.notes,
        "psi_matrix": cert.psi_matrix,
    }
    return doc, (0 if cert.verdict != certifier.INCONCLUSIVE else 2)


def _cmd_experiment(args: argparse.Namespace):
    _require(args, "m", "n", "trials")
    fmt = tensorcore.Format(args.m, args.n)
    opts = certifier.CertifyOptions()
    if args.tol is not None:
        opts.span_tol = args.tol
    if args.mode == "perturb":
        _require(args, "eps")
        stats = certifier.perturb_experiment(fmt, args.eps, args.trials, seed=args.seed, opts=opts)
    else:
        stats = certifier.global_experiment(fmt, args.trials, seed=args.seed, opts=opts)
    doc = {
        "mode": args.mode,
        "m": stats.m, "n": stats.n,
        "trials": stats.trials,
        "eps": stats.eps,
        "counts": stats.counts,
        "fractions": {k: stats.fraction(k) for k in stats.counts},
        "mean_dim_u": stats.mean_dim_u,
    }
    return doc, 0


def _cmd_selftest(args: argparse.Namespace):
    results = acceptance.run_acceptance(span_tol=args.tol)
    for r in results:
        print(r.line(), flush=True)
    doc = {
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail,
             "elapsed_s": r.seconds}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return doc, (0 if doc["passed"] else 2)


_HANDLERS = {
    "alpha": _cmd_alpha,
    "divisors": _cmd_divisors,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "experiment": _cmd_experiment,
    "selftest": _cmd_selftest,
}


def _table_csv(doc: dict) -> str:
    return jsonio.dump_csv(doc["rows"])


def dispatch(argv: list[str]) -> tuple[int, str]:
    """Parse argv, run one subcommand, and render its report.

    Returns (exit code, rendered report text).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.tol is not None and not (0 < args.tol < math.inf):
            raise ValueError(f"--tol must be positive and finite, got {args.tol:g}")
        result, code = _HANDLERS[args.command](args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        return 1, f"error: {exc}\n"
    except (ChartViolationError, DegenerateStartError) as exc:
        return 2, f"error: {type(exc).__name__}: {exc}\n"
    params = {k: getattr(args, k, None) for k in _PARAMS}
    report = {
        "command": args.command,
        "params": {k: v for k, v in params.items() if v is not None},
        "result": result,
        "elapsed_s": time.perf_counter() - start,
    }
    if args.format == "csv":
        if args.command != "table":
            return 1, "error: csv output is only available for table\n"
        text = _table_csv(result)
    elif args.format == "plain":
        text = jsonio.dump_plain(report)
    else:
        text = jsonio.dumps(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        return code, ""
    return code, text


def main(argv: list[str] | None = None) -> None:
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
