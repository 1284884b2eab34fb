"""conebell: exact facet machinery for correlation polytopes.

Enumerate local deterministic behaviors, find every facet of the local
polytope or only those satisfying affine constraints (tightness on chosen
behaviors, relabeling symmetries), classify facets into local-relabeling
equivalence classes, bound quantum violations with an alternating ascent,
and export moment-matrix relaxations for external SDP solvers.
"""

from .scenario import Scenario, behavior_dimension, enumerate_vertices, vertex_count
from .inequality import (Inequality, algebraic_bound, from_cone_normal,
                         from_terms, parse_inequality, write_inequality)
from .cone import (Cone, FacetNormal, constrained_facets, enumerate_facets_dd,
                   lift_polytope, project_rays)
from .constraints import invariant_basis, parse_relabeling
from .search import (EquivalenceClass, ReductionSpec, canonical_form, classify,
                     generalize_multi)
from .quantum import (BoundsRecord, Metrics, SeesawConfig, SeesawResult,
                      bell_operator, metrics, seesaw)
from .npa import export_sdpa, moment_matrix_structure

__all__ = [name for name in dir() if not name.startswith("_")]
