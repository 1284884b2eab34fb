import numpy as np
import pytest

from conebell import catalog
from conebell.errors import InvariantViolationError
from conebell.inequality import algebraic_bound
from conebell.quantum import (BoundsRecord, SeesawConfig,
                              assert_valid_observable, bell_operator,
                              bell_value, metrics, parse_seesaw_result,
                              seesaw, write_seesaw_result, _sign_observable)

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

FAST = SeesawConfig(local_dim=2, restarts=8, seed=3)


def test_bell_operator_classical_embedding():
    chsh = catalog.chsh()
    op = bell_operator(chsh, [[Z, Z], [Z, Z]])
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0  # |00>: all observables give +1
    assert np.isclose(np.real(state @ op @ state), 2.0)


def test_bell_operator_tsirelson_eigenvalue():
    chsh = catalog.chsh()
    op = bell_operator(chsh, [[Z, X], [(Z + X) / np.sqrt(2), (Z - X) / np.sqrt(2)]])
    assert np.isclose(np.linalg.eigvalsh(op)[-1], 2 * np.sqrt(2))


def test_mermin_ghz_value():
    mermin = catalog.mermin()
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    # per party: setting 1 = Y, setting 2 = -X reaches the algebraic maximum
    op = bell_operator(mermin, [[Y, -X]] * 3)
    assert np.isclose(np.real(ghz @ op @ ghz), 4.0)
    # with X/Y settings the maximum 4 is reached by a phase-rotated GHZ state
    op_xy = bell_operator(mermin, [[X, Y]] * 3)
    assert np.isclose(np.linalg.eigvalsh(op_xy)[-1], 4.0)


def test_bell_operator_dimension_mismatch():
    with pytest.raises(ValueError):
        bell_operator(catalog.chsh(), [[Z, X], [Z, np.eye(3, dtype=complex)]])


def test_seesaw_chsh_reaches_tsirelson():
    res = seesaw(catalog.chsh(), FAST)
    assert abs(res.value - 2 * np.sqrt(2)) < 1e-6


def test_seesaw_traces_monotone():
    res = seesaw(catalog.chsh(), FAST)
    for tr in res.traces:
        assert all(b >= a - 1e-10 for a, b in zip(tr, tr[1:]))


def test_seesaw_outputs_valid_observables_and_state():
    res = seesaw(catalog.chsh(), FAST)
    assert np.isclose(np.linalg.norm(res.state), 1.0)
    for party in res.observables:
        for obs in party:
            assert_valid_observable(obs)
    # claimed value equals an independent contraction
    assert np.isclose(res.value, bell_value(catalog.chsh(), res.observables, res.state))


def test_seesaw_qutrit_at_least_qubit():
    cfg2 = SeesawConfig(local_dim=2, restarts=6, seed=0)
    cfg3 = SeesawConfig(local_dim=3, restarts=6, seed=0)
    v2 = seesaw(catalog.chsh(), cfg2).value
    v3 = seesaw(catalog.chsh(), cfg3).value
    assert v3 >= v2 - 1e-6


def test_seesaw_below_algebraic_bound():
    for ineq in (catalog.chsh(), catalog.mermin()):
        res = seesaw(ineq, FAST)
        assert res.value <= algebraic_bound(ineq) + 1e-6


def test_sign_step_is_optimal():
    rng = np.random.default_rng(8)
    for _ in range(25):
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = f + f.conj().T
        best = _sign_observable(f)
        best_val = np.real(np.trace(best @ f))
        for _ in range(10):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(h)
            rand_obs = (q * rng.choice([-1.0, 1.0], size=3)) @ q.conj().T
            assert np.real(np.trace(rand_obs @ f)) <= best_val + 1e-9


def test_zero_eigenvalue_maps_to_plus_one():
    f = np.diag([1.0, 0.0, -2.0]).astype(complex)
    obs = _sign_observable(f)
    assert np.allclose(np.sort(np.linalg.eigvalsh(obs)), [-1, 1, 1])


def test_observable_validation():
    assert_valid_observable(Z)
    with pytest.raises(ValueError):
        assert_valid_observable(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        assert_valid_observable(2 * Z)


def test_metrics_table_values():
    rec = BoundsRecord(classical=18, algebraic=96, qubit=20.928, qutrit=21.157,
                       npa2=22.0, npa3=21.238)
    m = metrics(rec)
    assert m.npa_level == 3
    assert round(m.relative_qutrit_violation, 2) == 17.54
    assert round(m.qutrit_qubit_ratio, 2) == 1.09
    assert round(m.npa_qutrit_ratio, 2) == 0.38
    assert round(m.algebraic_classical_ratio, 2) == 433.33


def test_metrics_level2_fallback_and_absence():
    rec = BoundsRecord(classical=4, algebraic=16, qubit=4.0, qutrit=4.0, npa2=4.01)
    m = metrics(rec)
    assert m.npa_level == 2 and m.npa_qutrit_ratio is not None
    rec2 = BoundsRecord(classical=4, algebraic=16, qubit=4.0, qutrit=4.0)
    m2 = metrics(rec2)
    assert m2.npa_level is None and m2.npa_qutrit_ratio is None


def test_bounds_record_ordering_invariant():
    bad = BoundsRecord(classical=4, algebraic=16, qubit=5.0, qutrit=4.5)
    with pytest.raises(InvariantViolationError):
        bad.check()
    ok = BoundsRecord(classical=4, algebraic=16, qubit=4.2, qutrit=4.2000005)
    ok.check()


def test_seesaw_result_file_round_trip():
    chsh = catalog.chsh()
    res = seesaw(chsh, FAST)
    text = write_seesaw_result(chsh, res, FAST)
    data = parse_seesaw_result(text)
    assert data["inequality"].coefficients == chsh.coefficients
    assert data["value"] == res.value
    assert np.allclose(data["state"], res.state)
    assert np.allclose(data["observables"][(0, 1)], res.observables[0][0])
