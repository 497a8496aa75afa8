"""Workloads, measurement loop, correctness gate and metrics of the
certifier benchmark.  ``run.py`` is the entry point; it pins the BLAS
threads before this module imports numpy.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from semitall import certifier, cli, jsonio, polyfactor, solver, tensorcore
from semitall.errors import AT_INFINITY, CHART_ESCAPE, PATH_DIVERGE, PATH_STALL, WARN_MULTIPLICITY

from tracing import Patches, Tracer, nesting_problems, percentile, samples_beyond, self_times

DEFAULT_SEED = 777
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
# After each certificate the run times the fixed calibration unit for
# PROBE_SHARE of the certificate's time, and after each set-up step for
# SETUP_PROBE_S seconds.  End-to-end times are reported as on a host that
# runs one unit in REF_UNIT_MS.
PROBE_SHARE = 0.05
SETUP_PROBE_S = 0.05
REF_UNIT_MS = 0.6
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# What a user's process imports before its first certificate; timed in a
# fresh interpreter, since this one has already imported it.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy; "
                "from semitall import certifier, cli, jsonio, polyfactor, solver, tensorcore; "
                "print(time.perf_counter() - t)")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CONCLUSIVE = (certifier.RANK_P, certifier.RANK_GT_P)
FAIL_REASONS = (PATH_STALL, PATH_DIVERGE, AT_INFINITY, CHART_ESCAPE, WARN_MULTIPLICITY)


@dataclass(frozen=True)
class Workload:
    """One input family.  ``pool`` inputs are generated per seed and a run
    cycles through them; the traced run certifies the first
    ``trace_certs`` of them."""

    name: str
    kind: str  # "global", "perturb" or "cli"
    m: int
    n: int
    pool: int
    trace_certs: int
    eps: float | None = None

    @property
    def fmt(self) -> tensorcore.Format:
        return tensorcore.Format(self.m, self.n)


WORKLOADS = {w.name: w for w in (
    # Many cheap 6-path certificates: per-certificate fixed costs and
    # per-path Python overhead weigh most; a batched tracker has least to batch.
    Workload("mc-gauss-3x3", "global", 3, 3, pool=400, trace_certs=150),
    # Negative control on the format the binary test misses: every verdict
    # is RANK_GT_P and paths start next to their endpoints (step ceiling).
    Workload("mc-perturb-3x5", "perturb", 3, 5, pool=300, trace_certs=100, eps=1e-3),
    # Headline format through the CLI: most tracking-bound, and the only
    # workload crossing cli, jsonio and load_tensor.
    Workload("certify-5x5", "cli", 5, 5, pool=60, trace_certs=6),
)}

END_TO_END = {
    "setup_s": "s",
    "certs_per_s": "1/s",
    "paths_per_s": "1/s",
    "certify_ms.p50": "ms",
    "paths_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.track_path.ms.p50": "ms",
    "solver.track_path.ms.p90": "ms",
    "solver.track_path.calls_per_cert": "count",
    "numpy.linalg.solve.calls_per_path": "count",
    "numpy.tensordot.calls_per_path": "count",
    "solver.solve_all.self_ms": "ms",
    "solver.start_solutions.ms": "ms",
    "tensorcore.make_start_frame.ms": "ms",
    "tensorcore.make_start_frame.calls_per_cert": "count",
    "tensorcore.sigma.ms": "ms",
    "tensorcore.mu.ms": "ms",
    "tensorcore.psi.calls": "count",
    "tensorcore.span_dim.ms": "ms",
    "certifier.certify.self_ms": "ms",
    "solver.n_paths": "count",
    "solver.retry_frac": "ratio",
    "solver.useful_path_frac": "ratio",
    **{f"solver.fail.{r}": "count" for r in FAIL_REASONS},
    "cli.dispatch.self_ms": "ms",
    "jsonio.dumps.ms": "ms",
    "tensorcore.load_tensor.ms": "ms",
    "trace.overhead_ms_per_cert": "ms",
}

# (module, function) pairs traced as spans, and numpy calls only counted.
SPANS = (
    (cli, "dispatch"), (jsonio, "dumps"), (tensorcore, "load_tensor"),
    (certifier, "certify"), (tensorcore, "sigma"), (tensorcore, "mu"),
    (tensorcore, "psi"), (tensorcore, "span_dim"),
    (solver, "solve_all"), (solver, "start_solutions"),
    (tensorcore, "make_start_frame"), (solver, "track_path"),
)
COUNTED = ((np.linalg, "solve", "numpy.linalg.solve"), (np, "tensordot", "numpy.tensordot"))


@dataclass
class PathReport:
    """What one ``solve_all`` call returned."""

    n_paths: int
    kept: int
    real_count: int
    reasons: list[str]


@dataclass
class Cert:
    """One certificate as the benchmark saw it.  ``verdict`` is None when
    the CLI exited with an error instead of a report."""

    index: int
    seconds: float
    verdict: str | None
    dim_u: int = 0
    real_points: int = 0
    n_paths: int = 0
    paths_failed: int = 0
    reports: list[PathReport] = field(default_factory=list)
    error: str = ""


class _Stop(Exception):
    pass


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((6, 6)) + 1j * _CAL_RNG.standard_normal((6, 6))
_CAL_B = _CAL_RNG.standard_normal(6) + 0j
_CAL_T = _CAL_RNG.standard_normal((4, 6, 6))


def calibration_unit() -> float:
    """Fixed work that uses no semitall code, mixing small numpy calls and
    pure-Python arithmetic as path tracking does.  Changing it rescales
    every reported time."""
    total = 0.0
    for _ in range(20):
        x = np.linalg.solve(_CAL_A, _CAL_B)
        total += float(np.abs(np.tensordot(_CAL_T, x, axes=([2], [0]))).sum())
    table = {}
    for i in range(2000):
        total += i * 0.5
        table[i & 63] = total
    return total


class HostSpeed:
    """How fast the shared host ran the calibration unit during a phase of
    a run.  Its speed drifts by a third within minutes, and the program
    drifts with it; ``scale`` turns a time measured in the phase into the
    time on a host that runs one unit in ``REF_UNIT_MS``."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def probe(self, seconds: float) -> float:
        """Run whole units for at least ``seconds`` (at least one unit);
        return the time spent."""
        start = time.perf_counter()
        while True:
            calibration_unit()
            self.units += 1
            spent = time.perf_counter() - start
            if spent >= seconds:
                break
        self.seconds += spent
        return spent

    @property
    def unit_ms(self) -> float:
        return self.seconds / self.units * 1e3

    @property
    def scale(self) -> float:
        return REF_UNIT_MS / self.unit_ms


class Runner:
    """Generates a workload's inputs from its seed and certifies them."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.files: list[tuple[str, int]] = []

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Write the input files and certify one warm-up tensor (the start
        frame of the format, untimed by the run); returns the seconds."""
        start = time.perf_counter()
        fmt = self.w.fmt
        frame = tensorcore.make_start_frame(fmt.m, fmt.n)
        warm = tensorcore.tau(frame.W0, fmt)
        if self.w.kind == "cli":
            os.makedirs(self.workdir, exist_ok=True)
            self.files = []
            for i in range(self.w.pool):
                path = os.path.join(self.workdir, f"{self.w.name}-seed{self.seed}-{i}.json")
                rng = np.random.default_rng((self.seed, 500 + 10 * fmt.m + fmt.n, i))
                tensorcore.save_tensor(tensorcore.Tensor3(rng.standard_normal((fmt.n, fmt.p, fmt.m))), path)
                self.files.append((path, self.seed * 1000 + i))
            warm_path = os.path.join(self.workdir, f"{self.w.name}-warmup.json")
            tensorcore.save_tensor(warm, warm_path)
            code, text = cli.dispatch(["certify", "--input", warm_path])
            if code != 0:
                raise RuntimeError(f"warm-up certificate failed: {text.strip()[:200]}")
        else:
            certifier.certify(warm)
        return time.perf_counter() - start

    # -- measurement ----------------------------------------------------

    def certify(self, stop, tracer: Tracer | None = None, speed: HostSpeed | None = None) -> list[Cert]:
        """Certify inputs in pool order, cycling, until ``stop(certs,
        measured_seconds)`` holds.  Each certificate's time runs from the
        end of the previous one's bookkeeping to its result, so parsing and
        checking outputs stay outside it.  With ``speed``, each certificate
        is followed by a calibration probe, whose time counts as measured
        but not as the certificate's."""
        certs: list[Cert] = []
        reports: list[PathReport] = []
        clock = {"mark": 0.0, "measured": 0.0}

        def done(cert: Cert) -> None:
            cert.reports = list(reports)
            reports.clear()
            certs.append(cert)
            clock["measured"] += cert.seconds
            if speed is not None:
                clock["measured"] += speed.probe(PROBE_SHARE * cert.seconds)
            if tracer is not None:
                tracer.cert = len(certs)
            if stop(certs, clock["measured"]):
                raise _Stop
            clock["mark"] = time.perf_counter()

        def elapsed() -> float:
            return time.perf_counter() - clock["mark"]

        with Patches() as probe:
            probe.replace(solver, "solve_all", lambda f: _capture(f, reports))
            if tracer is not None:
                tracer.cert = 0
                for module, attr in SPANS:
                    tracer.span(module, attr, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
                for module, attr, name in COUNTED:
                    tracer.count(module, attr, name)
            try:
                clock["mark"] = time.perf_counter()
                if self.w.kind == "cli":
                    self._certify_files(done, elapsed)
                else:
                    self._experiment(done, elapsed)
            except _Stop:
                pass
            finally:
                if tracer is not None:
                    tracer.restore()
        return certs

    def _experiment(self, done, elapsed) -> None:
        fmt = self.w.fmt

        def collect(trial, rc):
            seconds = elapsed()
            done(Cert(trial, seconds, rc.verdict, rc.dim_u, rc.real_points, rc.n_paths, rc.paths_failed))

        while True:
            if self.w.kind == "global":
                certifier.global_experiment(fmt, self.w.pool, seed=self.seed, collect=collect)
            else:
                certifier.perturb_experiment(fmt, self.w.eps, self.w.pool, seed=self.seed, collect=collect)

    def _certify_files(self, done, elapsed) -> None:
        while True:
            for i, (path, cert_seed) in enumerate(self.files):
                code, text = cli.dispatch(["certify", "--input", path, "--seed", str(cert_seed)])
                seconds = elapsed()
                if text.startswith("error:"):
                    done(Cert(i, seconds, None, error=f"exit {code}: {text.strip()}"))
                    continue
                doc = json.loads(text)["result"]
                done(Cert(i, seconds, doc["verdict"], doc["dim_u"], doc["real_points"],
                          doc["n_paths"], doc["paths_failed"]))


def _capture(solve_all, sink: list[PathReport]):
    def wrapper(*args, **kwargs):
        report = solve_all(*args, **kwargs)
        sink.append(PathReport(report.n_paths, len(report.solutions), report.real_count,
                               [f.reason for f in report.failures]))
        return report
    return wrapper


# -- correctness gate --------------------------------------------------------

def check(w: Workload, seed: int, certs: list[Cert], expected: list | None) -> list[str]:
    """Every way the certificates contradict the paper's invariants, their
    own solver reports, or (``expected`` given) the recorded verdicts."""
    fmt = w.fmt
    n_paths = math.comb(fmt.u, fmt.m - 1)
    alpha = polyfactor.alpha_closed(fmt.m, fmt.n)
    errors = []
    for k, c in enumerate(certs):
        where = f"{w.name} seed {seed} certificate {k} (input {c.index})"
        if expected is not None:
            want = expected[c.index]
            got = [c.verdict, c.dim_u, c.real_points, c.n_paths]
            if got != want:
                errors.append(f"{where}: [verdict, dim_u, real_points, n_paths] = {got}, recorded {want}")
        if c.verdict is None:
            # Gaussian inputs lie in the sigma chart with probability 1
            if w.kind == "cli" and "ChartViolationError" not in c.error:
                errors.append(f"{where}: CLI error exit on a Gaussian input: {c.error}")
            continue
        errors.extend(f"{where}: {msg}" for msg in _cert_problems(c, fmt, n_paths))
        if w.kind == "perturb" and (c.verdict == certifier.RANK_P or c.dim_u > alpha):
            errors.append(f"{where}: {c.verdict} with dim_u {c.dim_u} near the start frame, "
                          f"alpha = {alpha} < p = {fmt.p} forbids RANK_P and dim_u > alpha")
    verdicts = Counter(c.verdict for c in certs)
    if w.kind == "global" and len(certs) >= 100 and not (verdicts[certifier.RANK_P] and verdicts[certifier.RANK_GT_P]):
        errors.append(f"{w.name} seed {seed}: {len(certs)} Gaussian certificates without both "
                      f"RANK_P and RANK_GT_P ({dict(verdicts)})")
    return errors


def _cert_problems(c: Cert, fmt: tensorcore.Format, n_paths: int) -> list[str]:
    out = []
    if c.verdict not in CONCLUSIVE + (certifier.INCONCLUSIVE,):
        return [f"unknown verdict {c.verdict!r}"]
    chart_violation = c.verdict == certifier.INCONCLUSIVE and c.n_paths == 0 and not c.reports
    if not chart_violation:
        if c.n_paths != n_paths:
            out.append(f"n_paths {c.n_paths}, C(u, m-1) = {n_paths}")
        if len(c.reports) != 1:
            out.append(f"{len(c.reports)} solver runs for one certificate")
    if not 0 <= c.paths_failed <= c.n_paths:
        out.append(f"paths_failed {c.paths_failed} of {c.n_paths}")
    if not 0 <= c.dim_u <= min(c.real_points, fmt.p):
        out.append(f"dim_u {c.dim_u} with {c.real_points} real points and p = {fmt.p}")
    if c.real_points > c.n_paths - c.paths_failed:
        out.append(f"{c.real_points} real points from {c.n_paths - c.paths_failed} endpoints")
    if c.paths_failed and c.verdict != certifier.INCONCLUSIVE:
        out.append(f"{c.verdict} with {c.paths_failed} failed paths")
    if c.verdict == certifier.RANK_P and c.dim_u != fmt.p:
        out.append(f"RANK_P with dim_u {c.dim_u} != p = {fmt.p}")
    if c.verdict == certifier.RANK_GT_P and c.dim_u >= fmt.p:
        out.append(f"RANK_GT_P with dim_u {c.dim_u} = p")
    if c.n_paths and not c.paths_failed and (c.n_paths - c.real_points) % 2:
        out.append(f"{c.real_points} real of {c.n_paths} endpoints: non-real ones must pair up")
    for r in c.reports:
        if r.kept + len(r.reasons) != r.n_paths:
            out.append(f"path conservation: {r.kept} endpoints + {len(r.reasons)} failures != {r.n_paths} paths")
        if (r.n_paths, len(r.reasons), r.real_count) != (c.n_paths, c.paths_failed, c.real_points):
            out.append(f"solver report (paths {r.n_paths}, failed {len(r.reasons)}, real {r.real_count}) "
                       f"disagrees with the certificate")
    return out


def load_expected(name: str) -> list:
    with open(EXPECTED_PATH) as fh:
        doc = json.load(fh)
    if doc["seed"] != DEFAULT_SEED:
        raise ValueError(f"{EXPECTED_PATH} was recorded at seed {doc['seed']}, not {DEFAULT_SEED}")
    return doc["workloads"][name]


# -- metrics -------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(certs: list[Cert], setup_s: float, scale: float = 1.0) -> dict[str, float]:
    """Rates over all certificate time, times multiplied by ``scale``
    (see ``HostSpeed``); CLI error exits spend time but count as no
    certificate and no path."""
    wall = sum(c.seconds for c in certs) * scale
    done = [c for c in certs if c.verdict is not None]
    paths = sum(c.n_paths for c in done)
    failed_paths = sum(c.paths_failed for c in done)
    return {
        "setup_s": setup_s,
        "certs_per_s": len(done) / wall,
        "paths_per_s": paths / wall,
        "certify_ms.p50": percentile([c.seconds * 1e3 * scale for c in done], 50) if done else 0.0,
        "paths_ok_frac": _ratio(paths - failed_paths, paths),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(spans, certs: list[Cert], overhead_ms_per_cert: float) -> dict[str, float]:
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def mean_ms(name: str, times=None) -> float:
        group = by_name.get(name, [])
        vals = [(s.seconds if times is None else times[s.id]) for s in group]
        return _ratio(sum(vals), len(vals)) * 1e3

    tracks = by_name.get("solver.track_path", [])
    n = len(certs)
    n_paths = sum(r.n_paths for c in certs for r in c.reports)
    kept = sum(r.kept for c in certs for r in c.reports)
    reasons = Counter(reason for c in certs for r in c.reports for reason in r.reasons)
    track_ms = [s.seconds * 1e3 for s in tracks] or [0.0]
    m = {
        "solver.track_path.ms.p50": percentile(track_ms, 50),
        "solver.track_path.ms.p90": percentile(track_ms, 90),
        "solver.track_path.calls_per_cert": len(tracks) / n,
        "numpy.linalg.solve.calls_per_path": _ratio(sum(s.counts.get("numpy.linalg.solve", 0) for s in tracks), len(tracks)),
        "numpy.tensordot.calls_per_path": _ratio(sum(s.counts.get("numpy.tensordot", 0) for s in tracks), len(tracks)),
        "solver.solve_all.self_ms": mean_ms("solver.solve_all", own),
        "solver.start_solutions.ms": mean_ms("solver.start_solutions"),
        "tensorcore.make_start_frame.ms": mean_ms("tensorcore.make_start_frame"),
        "tensorcore.make_start_frame.calls_per_cert": len(by_name.get("tensorcore.make_start_frame", [])) / n,
        "tensorcore.sigma.ms": mean_ms("tensorcore.sigma"),
        "tensorcore.mu.ms": mean_ms("tensorcore.mu"),
        "tensorcore.psi.calls": len(by_name.get("tensorcore.psi", [])) / n,
        "tensorcore.span_dim.ms": mean_ms("tensorcore.span_dim"),
        "certifier.certify.self_ms": mean_ms("certifier.certify", own),
        "solver.n_paths": n_paths,
        "solver.retry_frac": _ratio(len(tracks) - n_paths, n_paths),
        "solver.useful_path_frac": _ratio(kept, len(tracks)),
        **{f"solver.fail.{r}": reasons[r] for r in FAIL_REASONS},
        "cli.dispatch.self_ms": mean_ms("cli.dispatch", own),
        "jsonio.dumps.ms": mean_ms("jsonio.dumps"),
        "tensorcore.load_tensor.ms": mean_ms("tensorcore.load_tensor"),
        "trace.overhead_ms_per_cert": overhead_ms_per_cert,
    }
    unknown = set(reasons) - set(FAIL_REASONS)
    if unknown:
        raise ValueError(f"failure reasons without a metric: {sorted(unknown)}")
    return m


def import_seconds() -> float:
    """The import of numpy and the semitall modules, in a fresh interpreter
    with this process's environment (and so its BLAS pinning)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return float(out.split()[-1])


def setup_seconds(runner: Runner, speed: HostSpeed) -> tuple[float, float]:
    """Medians of ``IMPORT_REPEATS`` imports and ``SETUP_REPEATS`` set-ups,
    each step followed by a calibration probe."""
    def probed(step):
        t = step()
        speed.probe(SETUP_PROBE_S)
        return t
    import_s = statistics.median(probed(import_seconds) for _ in range(IMPORT_REPEATS))
    return import_s, statistics.median(probed(runner.setup) for _ in range(SETUP_REPEATS))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(blas_threads: int) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


# -- runs ------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    errors: list[str]
    notes: list[str]
    certs: list[Cert]
    spans: list = field(default_factory=list)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    w = WORKLOADS[name]
    runner = Runner(w, seed, workdir)
    setup_speed, speed = HostSpeed(), HostSpeed()
    import_s, own_setup_s = setup_seconds(runner, setup_speed)
    setup_s = (import_s + own_setup_s) * setup_speed.scale
    expected = load_expected(name) if seed == DEFAULT_SEED else None
    notes = []
    if trace:
        k = w.trace_certs
        tracer = Tracer()
        traced = runner.certify(lambda certs, _: len(certs) >= k, tracer)
        plain = runner.certify(lambda certs, _: len(certs) >= k)
        # same inputs in the same order: the median of the paired differences
        overhead = statistics.median(t.seconds - p.seconds for t, p in zip(traced, plain)) * 1e3
        metrics, units = per_layer(tracer.spans, traced, overhead), PER_LAYER
        certs = traced + plain
        spans = tracer.spans
        errors = check(w, seed, traced, expected) + check(w, seed, plain, expected)
        errors += nesting_problems(spans)
    else:
        certs = runner.certify(lambda certs, measured: measured >= seconds, speed=speed)
        metrics, units = end_to_end(certs, setup_s, speed.scale), END_TO_END
        raw = end_to_end(certs, import_s + own_setup_s)
        notes.append(f"host: calibration unit {speed.unit_ms:.4f} ms over {speed.units} units while "
                     f"certifying, {setup_speed.unit_ms:.4f} ms over {setup_speed.units} in set-up; "
                     f"reference {REF_UNIT_MS} ms")
        notes.append("unscaled: " + ", ".join(f"{k} {raw[k]:.6g}" for k in
                                              ("setup_s", "certs_per_s", "paths_per_s", "certify_ms.p50")))
        spans = []
        errors = check(w, seed, certs, expected)
        ms = [c.seconds * 1e3 * speed.scale for c in certs]
        if samples_beyond(len(ms), 90) >= 10:
            notes.append(f"certify_ms.p90 {percentile(ms, 90)} ms (scaled) over {len(ms)} certificates")
        else:
            notes.append(f"certify_ms.p90 not reported: {len(ms)} certificates leave fewer than 10 beyond it")
    verdicts = Counter(c.verdict or "ERROR" for c in certs)
    notes.insert(0, f"{len(certs)} certificates {dict(sorted(verdicts.items()))}, "
                    f"{sum(c.n_paths for c in certs)} paths, inconclusive_frac "
                    f"{_ratio(verdicts[certifier.INCONCLUSIVE] + verdicts['ERROR'], len(certs))}")
    notes.insert(1, f"setup_s = (import {import_s:.4f} s (median of {IMPORT_REPEATS} fresh interpreters) "
                    f"+ set-up {own_setup_s:.4f} s (median of {SETUP_REPEATS})) x scale {setup_speed.scale:.4f}")
    cli_errors = [c.error for c in certs if c.verdict is None]
    if cli_errors:
        notes.append(f"{len(cli_errors)} CLI errors, first: {cli_errors[0]}")
    return Result(not errors, len(certs), len(cli_errors), metrics, units, errors, notes, certs, spans)


def record(workdir: str) -> dict:
    """Certify every pool input of every workload at the default seed and
    return the per-input values the gate compares against."""
    out = {}
    for w in WORKLOADS.values():
        runner = Runner(w, DEFAULT_SEED, workdir)
        runner.setup()
        certs = runner.certify(lambda certs, _: len(certs) >= w.pool)
        errors = check(w, DEFAULT_SEED, certs, None)
        if errors:
            raise RuntimeError("\n".join(errors))
        out[w.name] = [[c.verdict, c.dim_u, c.real_points, c.n_paths] for c in certs]
        print(f"{w.name}: {dict(Counter(c.verdict for c in certs))}", file=sys.stderr, flush=True)
    return out
