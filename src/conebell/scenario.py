"""Bell scenarios with dichotomic measurements and their local polytopes.

A scenario is a number of parties and a setting count per party; every
measurement has outcomes +-1.  Correlator coordinates are indexed by setting
tuples (s_1, ..., s_n) with 0 <= s_i <= m_i, where setting 0 is the fixed
measurement that always yields +1, so the all-zero tuple is the constant
term.  Tuples are laid out in lexicographic order with the first party most
significant; index 0 is the constant coordinate.

Vertices are the local deterministic behaviors.  enumerate_vertices returns
them as the rows of one int64 matrix, in lifted form with the leading
coordinate 1; every later stage (cones, extended behaviors, constraint rows)
works on such matrices.  Scenario is immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ParseError

VERTEX_CAP_DEFAULT = 1 << 24
# party names in the text formats: party i is _PARTY_LETTERS[i]
_PARTY_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class Scenario:
    """Party count and per-party setting counts, dichotomic outcomes."""

    settings: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(int(m) for m in self.settings))
        if len(self.settings) < 1:
            raise ValueError("a scenario needs at least one party")
        if any(m < 1 for m in self.settings):
            raise ValueError("every party needs at least one setting")

    @property
    def parties(self):
        return len(self.settings)

    @property
    def shape(self):
        """Coordinate-array shape: one axis of length m_i + 1 per party."""
        return tuple(m + 1 for m in self.settings)

    @property
    def dimension(self):
        return behavior_dimension(self)

    def index_of(self, setting_tuple):
        t = tuple(setting_tuple)
        if len(t) != self.parties or any(not (0 <= s <= m) for s, m in zip(t, self.settings)):
            raise ValueError(f"invalid setting tuple {t} for scenario {self.settings}")
        return int(np.ravel_multi_index(t, self.shape))

    def header(self):
        return f"scenario: n={self.parties} settings=" + ",".join(str(m) for m in self.settings)


def parse_scenario_header(line, lineno=None):
    text = line.strip()
    if not text.startswith("scenario:"):
        raise ParseError(f"expected scenario header, got {text!r}", line=lineno)
    body = text[len("scenario:"):].strip()
    try:
        n_part, settings_part = body.split()
        assert n_part.startswith("n=") and settings_part.startswith("settings=")
        n = int(n_part[2:])
        settings = tuple(int(x) for x in settings_part[len("settings="):].split(","))
    except (ValueError, AssertionError):
        raise ParseError(f"malformed scenario header {text!r}", line=lineno) from None
    if n != len(settings):
        raise ParseError(f"scenario header claims n={n} but lists {len(settings)} parties", line=lineno)
    return Scenario(settings)


def behavior_dimension(scenario):
    """Number of independent correlators: prod(m_i + 1) - 1."""
    d = 1
    for m in scenario.settings:
        d *= m + 1
    return d - 1


def vertex_count(scenario):
    """Number of deterministic behaviors: 2 ** (total setting count)."""
    return 1 << sum(scenario.settings)


def _party_block(m):
    """Rows (1, a_1, ..., a_m) for all assignments a in lex order, -1 first."""
    rows = np.array(list(itertools.product((-1, 1), repeat=m)), dtype=np.int64)
    return np.hstack([np.ones((rows.shape[0], 1), dtype=np.int64), rows])


def enumerate_vertices(scenario, cap=VERTEX_CAP_DEFAULT):
    """All lifted vertices as the rows of an int64 matrix.

    Row order is lexicographic over the concatenated assignments with -1
    before +1; columns are the setting-tuple coordinates (Scenario.index_of),
    the all-zero tuple first.  A party's
    assignment index reads its outcomes as binary digits (+1 as 1, setting 1
    most significant), and a vertex's row is the mixed-radix number of these
    indices with radix 2^m_i per party, the first party most significant.
    """
    n = vertex_count(scenario)
    if n > cap:
        raise CapExceededError(
            f"scenario has {n} vertices, above the cap of {cap}; raise the cap explicitly if intended")
    mat = np.ones((1, 1), dtype=np.int64)
    for m in scenario.settings:
        mat = np.kron(mat, _party_block(m))
    return mat
