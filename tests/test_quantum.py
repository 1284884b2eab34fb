import numpy as np
import pytest

from conebell import catalog
from conebell.errors import InvariantViolationError, ParseError
from conebell.inequality import Inequality, algebraic_bound, from_terms
from conebell.quantum import (BoundsRecord, SeesawConfig,
                              assert_valid_observable, bell_operator,
                              bell_value, metrics, replay_seesaw_result,
                              seesaw, write_seesaw_result, _bell_operators,
                              _coefficient_tensor, _effective_operators,
                              _random_stacks, _sign_observable, _sweep)
from conebell.scenario import Scenario

from .reference import (reference_bell_operator, reference_effective_operator,
                        reference_random_observables)

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

FAST = SeesawConfig(local_dim=2, restarts=8, seed=3)

ORACLE_CASES = [(settings, d) for settings in ((2, 2), (4, 4), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2))
                for d in (2, 3)]


def _random_instance(settings, d, seed, restarts=1):
    """A random integer inequality, and per restart distinct random +-1
    observables, as stacks, and a random state."""
    rng = np.random.default_rng(seed)
    sc = Scenario(settings)
    ineq = Inequality(sc, tuple(int(c) for c in rng.integers(-3, 4, size=sc.dimension + 1)))
    stacks = _random_stacks([rng] * restarts, settings, d)
    psi = (rng.standard_normal((restarts, d ** sc.parties))
           + 1j * rng.standard_normal((restarts, d ** sc.parties)))
    return ineq, stacks, psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _restart(stacks, r):
    """observables[p][s-1] of restart r."""
    return [list(stack[r, 1:]) for stack in stacks]


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


def test_bell_operator_rejects_wrong_observable_counts():
    with pytest.raises(ValueError, match="per party"):
        bell_operator(catalog.chsh(), [[Z, X]])
    with pytest.raises(ValueError, match="needs 2"):
        bell_operator(catalog.chsh(), [[Z, X], [Z]])


@pytest.mark.parametrize("settings,d", ORACLE_CASES)
def test_bell_operator_matches_kron_reference(settings, d):
    ineq, stacks, _ = _random_instance(settings, d, seed=sum(settings) * 10 + d, restarts=3)
    batch = _bell_operators(_coefficient_tensor(ineq), stacks)
    assert batch.shape == (3, d ** len(settings), d ** len(settings))
    for r in range(3):
        obs = _restart(stacks, r)
        assert np.abs(batch[r] - reference_bell_operator(ineq, obs)).max() < 1e-12
        # the public operator is the batch of one
        assert np.array_equal(bell_operator(ineq, obs), batch[r])


@pytest.mark.parametrize("settings,d", ORACLE_CASES)
def test_effective_operators_match_reference(settings, d):
    ineq, stacks, psi = _random_instance(settings, d, seed=sum(settings) * 10 + d + 1,
                                         restarts=3)
    coeffs = _coefficient_tensor(ineq)
    psi_tensor = psi.reshape((3,) + (d,) * len(settings))
    for party, m in enumerate(settings):
        batch = _effective_operators(coeffs, stacks, psi_tensor, party)
        assert batch.shape == (3, m, d, d)
        for r in range(3):
            for s in range(1, m + 1):
                ref = reference_effective_operator(ineq, _restart(stacks, r), psi[r], party, s)
                assert np.abs(batch[r, s - 1] - ref).max() < 1e-12


def test_seesaw_chsh_reaches_tsirelson():
    res = seesaw(catalog.chsh(), FAST)
    assert abs(res.value - 2 * np.sqrt(2)) < 1e-6


def test_seesaw_traces_monotone():
    # qubits on two parties, and qutrits on three
    for ineq, cfg in [(catalog.chsh(), FAST),
                      (catalog.gyni(), SeesawConfig(local_dim=3, restarts=4))]:
        res = seesaw(ineq, cfg)
        assert len(res.traces) == cfg.restarts
        for tr in res.traces:
            assert all(b >= a - 1e-10 for a, b in zip(tr, tr[1:]))


@pytest.mark.parametrize("settings,d,restarts,seed", [
    ((2, 2), 2, 3, 0), ((4, 4), 3, 2, 4), ((3, 3, 3), 2, 2, 7), ((1,), 4, 5, 11),
    ((2, 1, 3), 3, 1, 123)])
def test_random_stacks_keep_the_reference_draws(settings, d, restarts, seed):
    # two draws per observable consume each restart's stream as the
    # reference's three do
    streams = np.random.SeedSequence(seed).spawn(restarts)
    stacks = _random_stacks([np.random.default_rng(s) for s in streams], settings, d)
    want = reference_random_observables([np.random.default_rng(s) for s in streams],
                                        settings, d)
    for stack, obs in zip(stacks, want, strict=True):
        assert (stack[:, 0] == np.eye(d)).all()
        assert np.array_equal(stack[:, 1:], obs)


def _one_restart_at_a_time(ineq, cfg):
    """(value, best restart, converged, traces, state, observables) of the
    seesaw with every restart run alone, in turn, as batches of one."""
    coeffs = _coefficient_tensor(ineq)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    runs, traces = [], []
    for r, stream in enumerate(streams):
        stacks = _random_stacks([np.random.default_rng(stream)], ineq.scenario.settings,
                                cfg.local_dim)
        op = _bell_operators(coeffs, stacks)
        trace = []
        for _ in range(cfg.warmup_iterations):
            psi, op, value = _sweep(coeffs, stacks, op)
            trace.append(float(value[0]))
        runs.append((-trace[-1], r, stacks, op, psi))
        traces.append(trace)
    best, all_converged = None, True
    for _, r, stacks, op, psi in sorted(runs, key=lambda run: run[:2])[:cfg.survivors]:
        value, converged = traces[r][-1], False
        for _ in range(cfg.max_iterations - cfg.warmup_iterations):
            psi, op, new_value = _sweep(coeffs, stacks, op)
            traces[r].append(float(new_value[0]))
            if new_value[0] - value < cfg.tolerance:
                value, converged = max(value, float(new_value[0])), True
                break
            value = float(new_value[0])
        all_converged = all_converged and converged
        if best is None or value > best[0]:
            best = (value, r, psi[0], _restart(stacks, 0))
    value, r, psi, observables = best
    return value, r, all_converged, traces, psi, observables


@pytest.mark.parametrize("ineq,cfg", [
    (catalog.i4422(), SeesawConfig(local_dim=3, restarts=12, seed=1)),
    # more survivors than restarts, as in the bench self-test's smoke case
    (catalog.chsh(), SeesawConfig(restarts=3)),
    (catalog.gyni(), SeesawConfig(restarts=1, seed=2)),
    # one sweep after the warmup: some survivors have not converged
    (catalog.i4422(), SeesawConfig(local_dim=3, restarts=6, survivors=4,
                                   max_iterations=6, seed=1)),
])
def test_lockstep_matches_one_restart_at_a_time(ineq, cfg):
    res = seesaw(ineq, cfg)
    value, best, converged, traces, psi, observables = _one_restart_at_a_time(ineq, cfg)
    assert (res.value, res.best_restart, res.converged, res.traces) == \
        (value, best, converged, traces)
    assert np.array_equal(res.state, psi)
    assert np.array_equal(res.observables, observables)


def test_lockstep_survivors_leave_the_batch_when_they_converge():
    cfg = SeesawConfig(local_dim=3, restarts=12, seed=1)
    res = seesaw(catalog.i4422(), cfg)
    grown = [tr for tr in res.traces if len(tr) > cfg.warmup_iterations]
    assert len(grown) == cfg.survivors and res.converged
    for tr in grown:
        steps = np.diff(tr[cfg.warmup_iterations - 1:])
        # each survivor stops at the first sweep that gains less than the tolerance
        assert steps[-1] < cfg.tolerance and (steps[:-1] >= cfg.tolerance).all()
    # so a survivor that converges early keeps a shorter trace
    assert len({len(tr) for tr in grown}) > 1


def test_seesaw_unconverged_survivor():
    cfg = SeesawConfig(local_dim=3, restarts=6, survivors=4, max_iterations=6, seed=1)
    res = seesaw(catalog.i4422(), cfg)
    assert not res.converged
    grown = [tr for tr in res.traces if len(tr) > cfg.warmup_iterations]
    assert [len(tr) for tr in grown] == [6] * 4
    assert any(tr[-1] - tr[-2] >= cfg.tolerance for tr in grown)


def test_warmup_ties_go_to_the_lower_restart():
    # every restart reaches the marginal's maximum 1 exactly
    marginal = from_terms(Scenario((2, 2)), 1, {(1, 0): 1})
    res = seesaw(marginal, SeesawConfig(restarts=8))
    assert {tr[-1] for tr in res.traces} == {1.0}
    assert [len(tr) for tr in res.traces] == [6] * 5 + [5] * 3
    assert res.best_restart == 0


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
    fs = rng.standard_normal((25, 3, 3)) + 1j * rng.standard_normal((25, 3, 3))
    fs = fs + np.swapaxes(fs, -1, -2).conj()
    stacked = _sign_observable(fs)
    assert stacked.shape == fs.shape
    for f, from_stack in zip(fs, stacked):
        best = _sign_observable(f)
        assert np.allclose(best, from_stack, atol=1e-12)
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
    stack = np.array([f, np.diag([0.0, 0.0, -3.0]), np.zeros((3, 3))], dtype=complex)
    spectra = np.sort(np.linalg.eigvalsh(_sign_observable(stack)), axis=-1)
    assert np.allclose(spectra, [[-1, 1, 1], [-1, 1, 1], [1, 1, 1]])


@pytest.mark.parametrize("fields", [{"warmup_iterations": 0}, {"survivors": 0},
                                    {"warmup_iterations": 5, "max_iterations": 3}])
def test_seesaw_config_rejects_bad_iteration_counts(fields):
    with pytest.raises(ValueError):
        SeesawConfig(**fields)


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
    ineq, dim, value = replay_seesaw_result(text)
    assert ineq == chsh
    assert dim == FAST.local_dim
    # the value is recomputed from the file's state and observables
    assert abs(value - res.value) < 1e-9


def test_replay_rejects_an_unknown_line_and_a_missing_observable():
    chsh = catalog.chsh()
    lines = write_seesaw_result(chsh, seesaw(chsh, FAST), FAST).splitlines()
    with pytest.raises(ParseError, match="unrecognized line 'npa9: 3'") as exc:
        replay_seesaw_result("\n".join(lines + ["npa9: 3"]))
    assert exc.value.line == len(lines) + 1
    missing = [line for line in lines if not line.startswith("observable 1 2:")]
    assert len(missing) == len(lines) - 1
    with pytest.raises(InvariantViolationError, match="no 2x2 observable for party 1 setting 2"):
        replay_seesaw_result("\n".join(missing))
