import numpy as np
import pytest

from conebell import search
from conebell.scenario import VERTEX_CAP_DEFAULT

from .reference import reference_fixed_rows, xi_label


@pytest.fixture
def branch_constraints():
    """(rows, positive) of one branch: target, reductions, xi_combo (one xi
    per reduction, a +-1 tuple per extra party) and optional symmetry
    generators, gathers (src, sign), each reduction's option the one of its
    xi.  rows stacks the
    options' extended behaviors (last reduction first) over the symmetry
    generators' P - I (reference_fixed_rows): their common kernel is the one
    search._branch projects onto, and positive holds the options' rows M n."""
    def run(target, reductions, xi_combo, symmetry=()):
        job = [next(option for option in search._reduction_options(
                        target, spec, search.ORBIT_CAP_DEFAULT, VERTEX_CAP_DEFAULT)
                    if option[0] == xi_label(xi))
               for spec, xi in zip(reductions, xi_combo)]
        rows = [ext for _, ext, _ in reversed(job)] + [reference_fixed_rows(symmetry, target)]
        return np.vstack(rows), np.array([w for _, _, w in reversed(job)])
    return run
