import pytest

from conebell import search
from conebell.constraints import symmetry_rows


@pytest.fixture
def branch_constraints():
    """(rows, positive) that search._branch passes to constrained_facets for
    one branch: target, reductions, xi_combo and optional symmetry
    generators, as generalize_multi would run it."""
    def run(target, reductions, xi_combo, symmetry=()):
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "constrained_facets",
                       lambda cone, rows, positive, cap: seen.append((rows, positive)) or [])
            search._branch(target, None, symmetry_rows(symmetry, target), 0, reductions,
                           xi_combo)
        return seen[0]
    return run
