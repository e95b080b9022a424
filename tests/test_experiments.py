"""Experiment drivers: configuration validation, persistence and
convergence verdicts, partial reports on per-trajectory failure, and
report determinism.

Key frozen values: the unit-rate A<->B network from (2.9, 0.1) has class
total 3 and Birch point (1.5, 1.5); corpus rev_pair (kf=2, kr=3) from the
same start has Birch point (1.8, 1.2); the triangle network's Birch point
is (1, 1) in every class it meets here.
"""

import numpy as np
import pytest

import toric_gac.experiments as experiments
from toric_gac.corpus import load
from toric_gac.dynamics import StepSizeUnderflow, integrate
from toric_gac.equilibria import NoComplexBalance
from toric_gac.experiments import (
    ExperimentConfig,
    InitialConditions,
    run_global_attractor_experiment,
    run_persistence_experiment,
)
from toric_gac.network import NotWeaklyReversible, parse_network

UNIT_PAIR = parse_network("species A B\nA <-> B ; kf=1 kr=1\n")


# -- configuration --------------------------------------------------------


def test_config_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        ExperimentConfig(horizon=0.0)


@pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
def test_config_rejects_bad_epsilon(eps):
    with pytest.raises(ValueError):
        ExperimentConfig(epsilon=eps)


def test_config_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        ExperimentConfig(tol=0.0)


def test_initial_conditions_validation():
    with pytest.raises(ValueError):
        InitialConditions.explicit([])
    with pytest.raises(ValueError):
        InitialConditions.sampled(0)
    with pytest.raises(ValueError):
        InitialConditions.sampled(5, box=(-1.0, 2.0))
    with pytest.raises(ValueError):
        InitialConditions.explicit([(1.0, 2.0)]).materialize(3)
    with pytest.raises(ValueError):
        InitialConditions.explicit([(1.0, -2.0)]).materialize(2)


def test_sampled_initial_conditions_are_seeded():
    a = InitialConditions.sampled(5, seed=3).materialize(2)
    b = InitialConditions.sampled(5, seed=3).materialize(2)
    c = InitialConditions.sampled(5, seed=4).materialize(2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    for p in a:
        assert np.all(p >= 0.1) and np.all(p <= 10.0)


# -- persistence ----------------------------------------------------------


def test_persistence_reversible_pair_floor():
    cfg = ExperimentConfig(
        initial=InitialConditions.sampled(10, (0.1, 10.0), seed=1))
    rep = run_persistence_experiment(cfg, UNIT_PAIR)
    assert rep.passed and rep.all_persistent and rep.lyapunov_monotone
    assert len(rep.records) == 10
    for r in rep.records:
        assert r.error is None
        # unit pair relaxes to (c/2, c/2) with c >= 0.2
        assert r.persistence_min >= 0.09
        assert r.persistence_min >= r.floor
        assert r.max_lyapunov_increase <= 1e-9


def test_persistence_triangle_minima_near_one():
    cfg = ExperimentConfig(
        initial=InitialConditions.sampled(6, (0.1, 10.0), seed=2))
    rep = run_persistence_experiment(cfg, load("triangle"))
    assert rep.passed
    for r in rep.records:
        assert r.persistence_min == pytest.approx(1.0, abs=0.05)


def test_persistence_fails_below_half_birch_floor():
    cfg = ExperimentConfig(
        horizon=0.01, initial=InitialConditions.explicit([(1e-3, 3.0)]))
    rep = run_persistence_experiment(cfg, UNIT_PAIR)
    # the Birch point is (1.5005, 1.5005), so the floor is about 0.75; in
    # 0.01 time units A climbs only to about 0.031
    r = rep.records[0]
    assert r.floor == pytest.approx(0.75, abs=1e-3)
    assert r.persistence_min < 0.05
    assert r.lyapunov_monotone
    assert not r.persistent and not rep.passed


def test_preconditions_propagate():
    cfg = ExperimentConfig(initial=InitialConditions.explicit([(1.0, 1.0)]))
    not_wr = parse_network("species A B\nA -> B ; k=1\n")
    with pytest.raises(NotWeaklyReversible):
        run_persistence_experiment(cfg, not_wr)
    cfg4 = ExperimentConfig(
        initial=InitialConditions.explicit([(1.0, 1.0, 1.0, 1.0)]))
    with pytest.raises(NoComplexBalance):
        run_persistence_experiment(cfg4, load("two_triangles_vertex"))


# -- global attractor ------------------------------------------------------


def test_gac_unit_pair_reaches_birch():
    cfg = ExperimentConfig(
        initial=InitialConditions.explicit([(2.9, 0.1)]))
    rep = run_global_attractor_experiment(cfg, UNIT_PAIR)
    r = rep.records[0]
    assert rep.passed and r.converged
    assert np.allclose(r.birch, (1.5, 1.5), atol=1e-12)
    assert r.final_distance <= 1e-6
    assert r.max_lyapunov_increase <= 1e-9


def test_gac_start_at_birch_stays():
    cfg = ExperimentConfig(
        initial=InitialConditions.explicit([(1.8, 1.2)]), tol=1e-8)
    rep = run_global_attractor_experiment(cfg, load("rev_pair"))
    assert rep.passed
    assert rep.records[0].final_distance <= 1e-8
    # the whole trajectory stays put, not just the endpoint
    traj = integrate(load("rev_pair"), None, np.array([1.8, 1.2]), 50.0)
    assert float(np.max(np.abs(traj.states - np.array([1.8, 1.2])))) <= 1e-8


def test_gac_detailed_balanced_cycle():
    net = load("rev_cycle_3sp_db")
    cfg = ExperimentConfig(
        initial=InitialConditions.sampled(4, (0.5, 2.0), seed=5))
    rep = run_global_attractor_experiment(cfg, net)
    assert rep.passed and rep.all_converged
    for r in rep.records:
        assert r.final_distance <= 1e-6


def test_gac_fails_for_unreachable_tolerance():
    cfg = ExperimentConfig(
        initial=InitialConditions.explicit([(2.9, 0.1)]),
        horizon=0.01, tol=1e-12)
    rep = run_global_attractor_experiment(cfg, UNIT_PAIR)
    assert not rep.passed and not rep.records[0].converged
    assert rep.records[0].error is None


# -- reporting ------------------------------------------------------------


def test_every_initial_condition_reported_once():
    pts = [(1.0, 2.0), (2.0, 1.0), (0.5, 0.5)]
    cfg = ExperimentConfig(initial=InitialConditions.explicit(pts))
    rep = run_persistence_experiment(cfg, UNIT_PAIR)
    assert [r.initial for r in rep.records] == [tuple(p) for p in pts]


def test_partial_report_on_trajectory_failure(monkeypatch):
    pts = [(1.0, 2.0), (2.0, 1.0), (0.5, 0.5)]
    cfg = ExperimentConfig(initial=InitialConditions.explicit(pts))
    clean = run_persistence_experiment(cfg, UNIT_PAIR)
    real = experiments.integrate
    calls = []

    def flaky(net, sched, x0, horizon, *a, **kw):
        calls.append(np.shape(x0))
        rows = real(net, sched, x0, horizon, *a, **kw)
        rows[1] = StepSizeUnderflow("forced failure")
        return rows

    monkeypatch.setattr(experiments, "integrate", flaky)
    rep = run_persistence_experiment(cfg, UNIT_PAIR)
    assert calls == [(3, 2)]  # every start in one batch
    assert len(rep.records) == 3
    assert rep.records[0].error is None
    assert rep.records[1].error == "StepSizeUnderflow: forced failure"
    assert rep.records[1].initial == pts[1]
    assert rep.records[2].error is None
    assert rep.records[0] == clean.records[0]
    assert rep.records[2] == clean.records[2]
    assert not rep.passed


def test_balance_solved_once_per_run(monkeypatch):
    import toric_gac.equilibria as equilibria
    real = equilibria.solve_complex_balanced
    calls = []

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    cfg = ExperimentConfig(
        initial=InitialConditions.sampled(5, (0.5, 2.0), seed=2))
    before = run_persistence_experiment(cfg, load("rev_triangle_db"))
    monkeypatch.setattr(equilibria, "solve_complex_balanced", counted)
    monkeypatch.setattr(experiments, "solve_complex_balanced", counted)
    after = run_persistence_experiment(cfg, load("rev_triangle_db"))
    assert len(calls) == 1
    assert after.to_json_dict() == before.to_json_dict()


def test_reports_are_deterministic():
    cfg = ExperimentConfig(
        initial=InitialConditions.sampled(4, (0.1, 10.0), seed=7))
    a = run_persistence_experiment(cfg, UNIT_PAIR).to_json_dict()
    b = run_persistence_experiment(cfg, UNIT_PAIR).to_json_dict()
    assert a == b
