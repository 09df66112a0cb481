import itertools

import pytest

import cdrfem.solver


@pytest.fixture
def growing_map(monkeypatch):
    """Make ``solve`` iterate a map that grows by construction: the row sums
    of its k-th ``edge_state`` call are scaled by 10**k."""
    real = cdrfem.solver.edge_state
    calls = itertools.count()

    def grown(*args, **kwargs):
        state = real(*args, **kwargs)
        state.rowsum *= 10.0 ** next(calls)
        return state

    monkeypatch.setattr(cdrfem.solver, "edge_state", grown)
