"""Command-line surface: semitall-rank <subcommand> [flags].

Subcommands: alpha, divisors, classify, table, solve, certify,
experiment (perturb|global), selftest.  Each takes only the flags it
reads (the ``_COMMANDS`` table), plus --output and --format; any
other flag is a usage error.  JSON is the canonical output (floats at 17
significant digits); CSV is available for table only.  Reports echo every
seed and tolerance needed to reproduce them; rerunning with the printed
flags yields byte-identical output apart from the elapsed_s timing field.

Exit codes: 0 success, 1 domain/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
import time

import numpy as np

from . import certifier, classifier, jsonio, polyfactor, solver, tensorcore
from .errors import ChartViolationError, DegenerateStartError, ResourceLimitError


# argparse settings of each flag that _COMMANDS (below) can name
_ARGUMENTS = {
    "m": {"type": int}, "n": {"type": int}, "p": {"type": int}, "eps": {"type": float},
    "trials": {"type": int}, "seed": {"type": int, "default": 0}, "input": {"type": str},
    "mode": {"choices": ["perturb", "global"]},
}


def _flags(command: str) -> list[str]:
    return [f.rstrip("!") for f in _COMMANDS[command][1].split()]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any -<digit> or -.<digit> token is a value (-1e-3 too), not a flag
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="semitall-rank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, _, formats) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        for name in _flags(command):
            p.add_argument(name if name == "mode" else f"--{name}", **_ARGUMENTS[name])
        p.add_argument("--output", type=str)
        p.add_argument("--format", choices=formats.split(), default="json")
    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [x for x in names if getattr(args, x) is None]
    if missing:
        raise ValueError(f"{args.command} requires {', '.join('--' + x for x in missing)}")


def _cmd_alpha(args: argparse.Namespace):
    """count the real monic degree-(m-1) divisors of y^(m+n-2)+1"""
    fmt = tensorcore.Format(args.m, args.n)
    a = polyfactor.alpha_closed(args.m, args.n)
    return {"m": args.m, "n": args.n, "u": fmt.u, "alpha": a, "p": fmt.p, "alpha_lt_p": a < fmt.p}, 0


def _cmd_divisors(args: argparse.Namespace):
    """list those divisors and their variety points"""
    u, d = tensorcore.Format(args.m, args.n).u, args.m - 1
    coeffs = polyfactor.real_divisors(u, d)
    docs = [{"coefficients_low_to_high": row, "variety_point": point}
            for row, point in zip(coeffs, polyfactor.divisor_points(coeffs))]
    return {"m": args.m, "n": args.n, "u": u, "degree": d, "count": len(coeffs), "divisors": docs}, 0


def _cmd_classify(args: argparse.Namespace):
    """typical-rank verdict for one format (p defaults to the critical value)"""
    p = args.p if args.p is not None else tensorcore.Format(args.m, args.n).p
    v = classifier.classify(args.m, args.n, p)
    return _verdict_doc(v), 0


def _verdict_doc(v: classifier.Verdict) -> dict:
    return {
        "m": v.m, "n": v.n, "p": v.p,
        "verdict": v.kind,
        "typical_ranks": v.ranks,
        "reasons": v.reasons,
        "grank": v.grank,
        "alpha": v.alpha,
        "bit_disjoint": v.bit_disjoint,
    }


def _cmd_table(args: argparse.Namespace):
    """verdict table over all 3 <= m <= n up to the given bounds"""
    rows = classifier.theorem_table(args.m, args.n)
    return {"m_max": args.m, "n_max": args.n, "rows": [_verdict_doc(v) for v in rows]}, 0


def _cmd_solve(args: argparse.Namespace):
    """every kernel pair of a target tensor (file, or a seeded perturbation), by Newton or by tracking"""
    if args.input:
        mixed = [f"--{x}" for x in ("m", "n", "eps") if getattr(args, x) is not None]
        if mixed:
            raise ValueError(f"solve --input reads the target from the file and takes no {', '.join(mixed)}")
        target = tensorcore.load_tensor(args.input)
    else:
        _require(args, "m", "n")
        frame = solver._start_system(args.m, args.n).frame
        if args.eps:
            rng = np.random.default_rng(args.seed)
            target = tensorcore.Tensor3(frame.Aprime.data + args.eps * rng.standard_normal(frame.Aprime.shape))
        else:
            target = frame.Aprime
    report = solver.solve_all(target, seed=args.seed)
    m = report.m
    doc = {
        "m": report.m, "n": report.n,
        "n_paths": report.n_paths,
        "real_count": report.real_count,
        "gamma": report.gamma,
        "chart_b": report.chart_b,
        "solutions": [
            {"a": z[:m], "b": z[m:], "residual": residual, "is_real": real, "source": report.route, "path_index": index}
            for z, residual, real, index in zip(report.solutions, report.residuals, report.real, report.path_index)
        ],
        "failures": [{"index": f.index, "reason": f.reason, "detail": f.detail} for f in report.failures],
    }
    return doc, (0 if report.complete else 2)


def _cmd_certify(args: argparse.Namespace):
    """rank-p certificate for an n x p x m tensor file"""
    cert = certifier.certify(tensorcore.load_tensor(args.input), seed=args.seed)
    return dataclasses.asdict(cert), (0 if cert.verdict != certifier.INCONCLUSIVE else 2)


def _cmd_experiment(args: argparse.Namespace):
    """seeded Monte Carlo certification experiments"""
    fmt = tensorcore.Format(args.m, args.n)
    if args.mode == "perturb":
        _require(args, "eps")
        stats = certifier.perturb_experiment(fmt, args.eps, args.trials, seed=args.seed)
    elif args.eps is not None:
        raise ValueError("experiment global draws Gaussian tensors and takes no --eps")
    else:
        stats = certifier.global_experiment(fmt, args.trials, seed=args.seed)
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
    """run the acceptance criteria and report pass/fail per criterion"""
    # only selftest reads the criteria, so no other command imports them
    from . import acceptance

    results = acceptance.run_acceptance()
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


# Subcommand -> (handler, the flags it reads, the --format choices it
# writes).  Flags are listed in "params" echo order, and a trailing "!"
# marks one the subcommand always requires; "mode" is experiment's
# positional.  Every subcommand also takes --output and --format (default
# json), which are not echoed.
_COMMANDS = {
    "alpha": (_cmd_alpha, "m! n!", "json plain"),
    "divisors": (_cmd_divisors, "m! n!", "json plain"),
    "classify": (_cmd_classify, "m! n! p", "json plain"),
    "table": (_cmd_table, "m! n!", "json csv plain"),
    "solve": (_cmd_solve, "m n eps seed input", "json plain"),
    "certify": (_cmd_certify, "seed input!", "json plain"),
    "experiment": (_cmd_experiment, "m! n! eps trials! seed mode", "json plain"),
    "selftest": (_cmd_selftest, "", "json plain"),
}


def dispatch(argv: list[str]) -> tuple[int, str]:
    """Parse argv, run one subcommand, and render its report.

    Returns (exit code, rendered report text).
    """
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        handler, flags, _ = _COMMANDS[args.command]
        _require(args, *(f[:-1] for f in flags.split() if f.endswith("!")))
        # the library refuses a bad seed too, but only after solve has handed
        # it to numpy for its --eps draw
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        result, code = handler(args)
        params = {k: getattr(args, k) for k in _flags(args.command)}
        report = {
            "command": args.command,
            "params": {k: v for k, v in params.items() if v is not None},
            "result": result,
            "elapsed_s": time.perf_counter() - start,
        }
        if args.format == "csv":
            text = jsonio.dump_csv(result["rows"])
        elif args.format == "plain":
            text = jsonio.dump_plain(report)
        else:
            text = jsonio.dumps(report)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            text = ""
    except (ValueError, ResourceLimitError, OSError) as exc:
        return 1, f"error: {exc}\n"
    except (ChartViolationError, DegenerateStartError) as exc:
        return 2, f"error: {type(exc).__name__}: {exc}\n"
    return code, text


def main(argv: list[str] | None = None) -> None:
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
