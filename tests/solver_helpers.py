"""A tracked solve shared by the solver and acceptance tests."""

import numpy as np

from semitall import solver


def tracked_solve(frame, target, seed):
    # every start path of solve_all's seed tracked to the target in one
    # pass, whichever route solve_all takes, and audited by _finish
    _, n, m = target.shape
    c, gamma = solver._draws(n, np.random.default_rng(seed))
    z, failed = solver._Lockstep(frame.Aprime.data, target.data, gamma, c).run(solver._start_rows(m, n, c))
    return solver._finish(target, z, failed, gamma, c, solver.TRACKED, solver._unit_shift(target.data))
