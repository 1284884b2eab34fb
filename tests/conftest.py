import numpy as np
import pytest

from conebell import search
from conebell.constraints import symmetry_rows
from conebell.scenario import VERTEX_CAP_DEFAULT


@pytest.fixture
def branch_constraints():
    """(rows, positive) that search._branch passes to constrained_facets for
    one branch: target, reductions, xi_combo and optional symmetry
    generators, each reduction's option the one of its xi, stacked as
    _branch stacks them (last reduction first, symmetry rows last)."""
    def run(target, reductions, xi_combo, symmetry=()):
        job = [next(option for option in search._reduction_options(
                        target, spec, search.ORBIT_CAP_DEFAULT, VERTEX_CAP_DEFAULT)
                    if option[0] == xi.label())
               for spec, xi in zip(reductions, xi_combo)]
        rows = [ext for _, ext, _ in reversed(job)] + [symmetry_rows(symmetry, target)]
        return np.vstack(rows), np.array([w for _, _, w in reversed(job)])
    return run
