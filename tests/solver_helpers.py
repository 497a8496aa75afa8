"""A tracked solve shared by the solver and acceptance tests."""

from semitall import solver
from semitall.errors import PATH_STALL


def tracker_only(monkeypatch, target, seed):
    # solve_all with the Newton route switched off, its first row failed
    # and so the route declined: the tracker alone
    with monkeypatch.context() as patch:
        patch.setattr(solver._Lockstep, "newton", lambda self, z0: (z0, {0: (PATH_STALL, "switched off")}))
        return solver.solve_all(target, seed=seed)
