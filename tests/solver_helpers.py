"""Start rows and a tracked solve shared by the solver and acceptance tests."""

import numpy as np

from semitall import solver


def start_rows(m, n, c):
    # the start rows on the b chart c . b = 1, as solve_all builds them
    _, a_rows, kernels, subsets = solver._start_system(m, n)
    return np.concatenate([a_rows, solver._on_chart(kernels, c, subsets)], axis=1)


def tracked_solve(frame, target, seed):
    # every start path of solve_all's seed tracked to the target in one
    # pass, whichever route solve_all takes, and audited by _finish
    _, n, m = target.shape
    rng = np.random.default_rng(seed)
    c = solver._chart_vector(n, rng)
    gamma = solver._sample_gamma(rng)
    z, failed = solver._Lockstep(frame.Aprime.data, target.data, gamma, c).run(start_rows(m, n, c))
    return solver._finish(target, z, failed, gamma, c, solver.TRACKED)
