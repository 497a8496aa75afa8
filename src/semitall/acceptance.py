"""Acceptance checks, runnable from the test suite or the CLI selftest.

Each criterion is a function returning (passed, detail).  Tolerances and
wall-clock budgets are fixed here; seeds are frozen so every run is a
deterministic reproduction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import certifier, classifier, polyfactor, recurrence, solver, tensorcore
from .errors import ResourceLimitError


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:02d} {self.name}: {status} ({self.seconds:.2f}s / budget {self.budget:.0f}s) {self.detail}"


# Rows (m, lowest n, highest n) of the six families on which the divisor
# count alpha(m, n) stays below p, each row truncated at its first failing
# n.  For even m the count is 0 for every even n, so rows m = 6 and m = 8
# resume at even n past their truncation point; ALPHA_EVEN_RESUMPTION
# lists exactly those extra pairs within the checked range n <= 40.
ALPHA_CASE_ROWS = {
    3: lambda n: True,
    4: lambda n: True,
    5: lambda n: n <= 26 or n == 28,
    6: lambda n: n <= 34,
    7: lambda n: n <= 12,
    8: lambda n: n <= 14,
    9: lambda n: n == 10,
}

ALPHA_EVEN_RESUMPTION = {(6, n) for n in range(36, 41, 2)} | {(8, n) for n in range(16, 41, 2)}

# The five families of formats asserted PLURAL by both criteria combined.
PLURAL_CASE_ROWS = {
    3: lambda n: True,
    4: lambda n: True,
    5: lambda n: n <= 26 or n == 28,
    6: lambda n: n <= 34,
    7: lambda n: n <= 16,
    8: lambda n: n <= 16,
}


def criterion_1_alpha_oracle():
    """alpha_closed equals its enumeration oracles on 3 <= m <= n <= 16."""
    pairs = brute = guarded = 0
    for m in range(3, 17):
        for n in range(m, 17):
            u, d = tensorcore.Format(m, n).u, m - 1
            closed = polyfactor.alpha_closed(m, n)
            generated = len(polyfactor.closed_selections(u, d))
            if closed != generated:
                return False, f"closed-form {closed} != generated {generated} at ({m},{n})"
            if math.comb(u, d) <= polyfactor.BRUTE_SUBSET_LIMIT:
                if closed != polyfactor.alpha_brute(m, n):
                    return False, f"closed-form {closed} != brute count at ({m},{n})"
                brute += 1
            else:
                # the full-enumeration oracle refuses by its budget; the
                # selection-generation oracle above still covers the pair
                try:
                    polyfactor.alpha_brute(m, n)
                except ResourceLimitError:
                    guarded += 1
                else:
                    return False, f"enumeration budget did not trip at ({m},{n})"
            pairs += 1
    return True, f"{pairs} formats, {brute} brute-enumerated, {guarded} budget-limited"


def criterion_2_alpha_case_list():
    """{(m,n): alpha < p} over 3 <= m <= 9, n <= 40 matches the known rows.

    The expected set is the six truncated rows plus the even-n resumption
    pairs for m = 6 and m = 8, where alpha = 0 < p identically.
    """
    computed = set()
    for m in range(3, 10):
        for n in range(m, 41):
            if polyfactor.alpha_closed(m, n) < tensorcore.Format(m, n).p:
                computed.add((m, n))
    expected = {
        (m, n) for m in range(3, 10) for n in range(m, 41) if ALPHA_CASE_ROWS.get(m, lambda _: False)(n)
    } | ALPHA_EVEN_RESUMPTION
    if computed != expected:
        extra = sorted(computed - expected)[:6]
        missing = sorted(expected - computed)[:6]
        return False, f"set mismatch, extra={extra} missing={missing}"
    for m, n in ALPHA_EVEN_RESUMPTION:
        if polyfactor.alpha_closed(m, n) != 0:
            return False, f"resumption pair ({m},{n}) should have alpha = 0"
    boundary_out = [(5, 27), (5, 29), (6, 35), (7, 13), (8, 15), (9, 9), (9, 11)]
    boundary_in = [(5, 26), (5, 28), (6, 34), (7, 12), (8, 14), (9, 10)]
    for m, n in boundary_out:
        if (m, n) in computed:
            return False, f"({m},{n}) unexpectedly satisfies alpha < p"
    for m, n in boundary_in:
        if (m, n) not in computed:
            return False, f"({m},{n}) should satisfy alpha < p"
    return True, f"{len(computed)} formats with alpha < p, boundaries exact"


def criterion_3_classify_cases():
    """classify is PLURAL on the five known rows, UNKNOWN at (5,27), never SINGLE."""
    for m in range(3, 10):
        for n in range(m, 41):
            v = classifier.classify(m, n, tensorcore.Format(m, n).p)
            if v.kind == classifier.SINGLE:
                return False, f"SINGLE issued at critical format ({m},{n})"
            in_rows = PLURAL_CASE_ROWS.get(m, lambda _: False)(n)
            if in_rows and v.kind != classifier.PLURAL:
                return False, f"({m},{n}) expected PLURAL, got {v.kind} {v.reasons}"
    for m, n in [(5, 27), (5, 33), (6, 35), (7, 17), (7, 18), (8, 17)]:
        v = classifier.classify(m, n, tensorcore.Format(m, n).p)
        if v.kind != classifier.UNKNOWN:
            return False, f"({m},{n}) expected UNKNOWN, got {v.kind} {v.reasons}"
    v = classifier.classify(9, 10, 73)
    if v.kind != classifier.PLURAL or classifier.ALPHA_LT_P not in v.reasons:
        return False, "(9,10) expected PLURAL via the divisor count"
    return True, "five PLURAL rows covered, named UNKNOWN boundaries verified"


CRITERION_4_FORMATS = [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]


def criterion_4_rank_equivalence():
    """Divisor points drop rank with all five conditions true; random points
    have full rank with all five false (100 per format)."""
    n_div = 0
    for m, n in CRITERION_4_FORMATS:
        u = tensorcore.Format(m, n).u
        for point in polyfactor.divisor_points(polyfactor.real_divisors(u, m - 1)):
            rep = recurrence.rank_conditions(point[: m - 1], m, n)
            ratio = rep.singular_values[-1] / rep.singular_values[0]
            if not all(rep.flags) or ratio >= recurrence.RANK_TOL:
                return False, f"divisor point {point[: m - 1]} at ({m},{n}): flags {rep.flags}, ratio {ratio:.2e}"
            n_div += 1
        rng = np.random.default_rng((404, m, n))
        for _ in range(100):
            a = rng.standard_normal(m - 1)
            rep = recurrence.rank_conditions(a, m, n)
            ratio = rep.singular_values[-1] / rep.singular_values[0]
            if any(rep.flags) or ratio < recurrence.RANK_TOL:
                return False, f"random point at ({m},{n}): flags {rep.flags}, ratio {ratio:.2e}"
    return True, f"{n_div} divisor points and 600 random points consistent"


def criterion_5_round_trips():
    """sigma/tau and nu/mu invert each other; the start frame is exact."""
    for m, n in [(3, 3), (4, 5)]:
        fmt = tensorcore.Format(m, n)
        rng = np.random.default_rng((505, m, n))
        worst = 0.0
        for _ in range(100):
            W = rng.standard_normal((fmt.u, fmt.p))
            e1 = np.max(np.abs(tensorcore.sigma(tensorcore.tau(W, fmt)) - W))
            e2 = np.max(np.abs(tensorcore.nu(tensorcore.mu(W, fmt)) - W))
            worst = max(worst, e1, e2)
        if worst >= 1e-10:
            return False, f"round-trip error {worst:.2e} at ({m},{n})"
    for m in range(3, 9):
        for n in range(m, 9):
            fmt = tensorcore.Format(m, n)
            frame = tensorcore.make_start_frame(m, n)
            F1 = tensorcore.fl1(frame.Aprime)
            if not np.array_equal(F1[:, fmt.p :], -np.eye(fmt.u)):
                return False, f"trailing block not -E_u at ({m},{n})"
            if not np.array_equal(tensorcore.mu(frame.W0, fmt).data, frame.Aprime.data):
                return False, f"mu(W0) differs from the start tensor at ({m},{n})"
    return True, "round trips below 1e-10; start-frame identities exact for m <= n <= 8"


CRITERION_6_FORMATS = [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)]


def criterion_6_start_systems():
    """Start systems: full path count, residuals < 1e-10, alpha real points."""
    details = []
    for m, n in CRITERION_6_FORMATS:
        u = tensorcore.Format(m, n).u
        report = solver.start_solutions(m, n, seed=(606, m, n))
        expected = math.comb(u, m - 1)
        if len(report.solutions) != expected:
            return False, f"({m},{n}): {len(report.solutions)} start solutions, expected {expected}"
        worst = report.residuals.max()
        if worst >= 1e-10:
            return False, f"({m},{n}): start residual {worst:.2e}"
        n_real = report.real_count
        if n_real != polyfactor.alpha_closed(m, n):
            return False, f"({m},{n}): {n_real} real starts, expected {polyfactor.alpha_closed(m, n)}"
        details.append(f"({m},{n}):{expected} paths,res {worst:.1e}")
    return True, "; ".join(details)


CRITERION_7_FORMATS = [(3, 3), (3, 4), (3, 5), (4, 4)]


def criterion_7_homotopy_stability():
    """20 perturbed targets per format: all paths land, distinct, closed, alpha real."""
    for m, n in CRITERION_7_FORMATS:
        fmt = tensorcore.Format(m, n)
        frame = tensorcore.make_start_frame(m, n)
        expected = math.comb(fmt.u, m - 1)
        alpha = polyfactor.alpha_closed(m, n)
        for trial in range(20):
            rng = np.random.default_rng((707, m, n, trial))
            target = tensorcore.Tensor3(frame.Aprime.data + 1e-3 * rng.standard_normal(frame.Aprime.shape))
            report = solver.solve_all(target, seed=(707, m, n, trial))
            if report.failures:
                return False, f"({m},{n}) trial {trial}: failures {[f.reason for f in report.failures]}"
            if len(report.solutions) != expected:
                return False, f"({m},{n}) trial {trial}: {len(report.solutions)} endpoints"
            # endpoints closer than DEDUP_TOL are already WARN_MULTIPLICITY failures
            if report.closure:
                return False, f"({m},{n}) trial {trial}: {'; '.join(report.closure)}"
            if report.real_count != alpha:
                return False, f"({m},{n}) trial {trial}: real count {report.real_count} != {alpha}"
    paths = sum(math.comb(tensorcore.Format(m, n).u, m - 1) for m, n in CRITERION_7_FORMATS)
    return True, f"80 targets, all {paths} path counts conserved"


def criterion_8_negative_control():
    """Perturbations of the reference frame certify RANK_GT_P with small span."""
    for m, n in [(3, 3), (3, 5)]:
        fmt = tensorcore.Format(m, n)
        alpha = polyfactor.alpha_closed(m, n)
        dims = []
        stats = certifier.perturb_experiment(
            fmt, eps=1e-3, trials=50, seed=808, collect=lambda i, cert: dims.append(cert.dim_u),
        )
        if stats.counts[certifier.RANK_P] != 0:
            return False, f"({m},{n}): RANK_P issued {stats.counts[certifier.RANK_P]} times"
        if stats.fraction(certifier.RANK_GT_P) < 0.95:
            return False, f"({m},{n}): RANK_GT_P fraction {stats.fraction(certifier.RANK_GT_P):.2f}"
        if any(d > alpha for d in dims):
            return False, f"({m},{n}): dim U exceeded alpha = {alpha}"
    return True, "both formats >= 95% RANK_GT_P, zero RANK_P, dim U <= alpha"


def criterion_9_positive_control():
    """Random sums of p rank-1 tensors certify RANK_P, never RANK_GT_P."""
    details = []
    for m, n in [(3, 3), (3, 4)]:
        fmt = tensorcore.Format(m, n)
        counts = {certifier.RANK_P: 0, certifier.RANK_GT_P: 0, certifier.INCONCLUSIVE: 0}
        for trial in range(50):
            rng = np.random.default_rng((909, m, n, trial))
            T = tensorcore.random_rank_sum(fmt, fmt.p, rng)
            cert = certifier.certify(T, seed=(909, m, n, trial))
            counts[cert.verdict] += 1
        if counts[certifier.RANK_GT_P] != 0:
            return False, f"({m},{n}): RANK_GT_P on a rank <= p tensor, counts {counts}"
        if counts[certifier.RANK_P] < 45:
            return False, f"({m},{n}): only {counts[certifier.RANK_P]}/50 RANK_P"
        details.append(f"({m},{n}):{counts[certifier.RANK_P]}/50")
    return True, "RANK_P " + ", ".join(details) + ", zero RANK_GT_P"


def criterion_10_plurality_evidence():
    """Gaussian tensors at (3,3) produce both verdicts with frequency > 5%."""
    fmt = tensorcore.Format(3, 3)
    stats = certifier.global_experiment(fmt, trials=200, seed=777)
    fr_p = stats.fraction(certifier.RANK_P)
    fr_gt = stats.fraction(certifier.RANK_GT_P)
    detail = f"RANK_P {fr_p:.1%}, RANK_GT_P {fr_gt:.1%}, INCONCLUSIVE {stats.fraction(certifier.INCONCLUSIVE):.1%}"
    if fr_p <= 0.05 or fr_gt <= 0.05:
        return False, detail
    return True, detail


CRITERIA = [
    (1, "alpha-oracle-equivalence", 10.0, criterion_1_alpha_oracle),
    (2, "alpha-case-list", 1.0, criterion_2_alpha_case_list),
    (3, "classifier-case-list", 1.0, criterion_3_classify_cases),
    (4, "rank-condition-equivalence", 30.0, criterion_4_rank_equivalence),
    (5, "chart-round-trips", 10.0, criterion_5_round_trips),
    (6, "start-systems", 30.0, criterion_6_start_systems),
    (7, "homotopy-real-count-stability", 120.0, criterion_7_homotopy_stability),
    (8, "certifier-negative-control", 120.0, criterion_8_negative_control),
    (9, "certifier-positive-control", 120.0, criterion_9_positive_control),
    (10, "plurality-evidence", 180.0, criterion_10_plurality_evidence),
]


def run_acceptance(indices=None) -> list[CheckResult]:
    """Run the selected criteria (all by default) and collect results."""
    results = []
    for index, name, budget, func in CRITERIA:
        if indices is not None and index not in indices:
            continue
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # a crashing criterion is a failing criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if passed and elapsed > budget:
            passed = False
            detail = f"over budget ({elapsed:.1f}s > {budget:.0f}s); " + detail
        results.append(CheckResult(index, name, passed, detail, elapsed, budget))
    return results

