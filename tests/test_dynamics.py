"""Field evaluation, rate schedules, and the adaptive integrator.

The reversible pair A <-> B with unit rates has the closed form
x1(t) = 1.5 + 0.5 exp(-2 t) from (2, 1); every accuracy assertion below is
frozen against it or against a hand-computed field value.
"""

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest

from toric_gac import dynamics
from toric_gac.corpus import NETWORK_TEXTS, load
from toric_gac.dynamics import (
    DimensionMismatch,
    EmptyTrajectory,
    FieldNotFinite,
    IntegratorOptions,
    InvalidHorizon,
    RateBand,
    RateOutOfBand,
    RateSchedule,
    StepSizeUnderflow,
    Trajectory,
    integrate,
    mass_action_field,
    persistence_metrics,
)
from toric_gac.jsonio import csv_text
from toric_gac.network import (CheckFailed, InputError, parse_network,
                               stoichiometric_subspace)


def pair_closed_form(t):
    return 1.5 + 0.5 * math.exp(-2.0 * t)


def conserved_drift(net, traj):
    """Oracle: the largest distance of a state's drift from the start to
    the stoichiometric subspace; an exact 0.0 when that subspace is all of
    R^n."""
    basis, s = stoichiometric_subspace(net)
    drift = traj.states - traj.states[0]
    perp = drift - (drift @ basis) @ basis.T
    return 0.0 if s == net.n else float(np.linalg.norm(perp, axis=1).max())


# ---------------------------------------------------------------------------
# field evaluation

def test_field_matches_hand_computation():
    net = load("triangle")
    f = mass_action_field(net, [1.0, 1.0, 1.0], np.array([4.0, 2.0]))
    # edges: x1*(-1,1), x2*(0,-1), 1*(1,0) at (4,2) -> (-3, 2)
    assert np.allclose(f, [-3.0, 2.0], atol=1e-14)


def test_field_uses_network_rates_when_none():
    net = load("rev_pair")
    f = mass_action_field(net, None, np.array([1.0, 1.0]))
    # 2*(-1,1) + 3*(1,-1) = (1,-1)
    assert np.allclose(f, [1.0, -1.0], atol=1e-14)


def test_field_powerlaw_exponents():
    net = parse_network("""
        species A
        complex (0.5) -> complex (-0.5) ; k=2
    """)
    f = mass_action_field(net, None, np.array([9.0]))
    assert np.allclose(f, [2.0 * 3.0 * (-1.0)], atol=1e-13)


def test_field_input_validation():
    net = load("rev_pair")
    with pytest.raises(DimensionMismatch):
        mass_action_field(net, None, np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        mass_action_field(net, [1.0], np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        mass_action_field(net, None, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        mass_action_field(net, [1.0, 0.0], np.array([1.0, 1.0]))


def test_field_without_reactions_is_zero():
    net = parse_network("species A B\n")
    assert len(net.reactions) == 0
    got = mass_action_field(net, None, np.ones((3, 2)))
    assert got.shape == (3, 2) and not got.any()
    assert np.array_equal(mass_action_field(net, None, np.ones(2)), [0.0, 0.0])


def test_underflowed_flux_gives_positive_zero():
    # k x underflows to +0.0 and its term (+0.0) * (-1) is -0.0; the field,
    # like a sum into zeros, must read +0.0 (reports print -0.0 otherwise)
    net = parse_network("species A\nA -> 0 ; k=1e-10\n")
    for x in (np.array([5e-324]), np.array([[5e-324], [5e-324]])):
        got = mass_action_field(net, None, x)
        assert not got.any() and not np.signbit(got).any()


def per_edge_field(net, rates, x):
    """Oracle: the field as a Python loop over the edges, accumulated
    left-to-right into a zero vector."""
    ymat = np.array([c.y for c in net.complexes], dtype=float)
    out = np.zeros(net.n)
    for r, k in zip(net.reactions, rates):
        mono = float(np.prod(x ** ymat[r.source]))
        out += (k * mono) * (ymat[r.target] - ymat[r.source])
    return out


# one species, 20 edges: a regrouped (pairwise) sum changes the last bits
ONE_SPECIES_DENSE = "species A\n" + "\n".join(
    f"complex ({i}) -> complex ({j}) ; k={1 + i + 0.25 * j}"
    for i in range(5) for j in range(5) if i != j)


def test_field_bit_identical_to_per_edge_loop():
    rng = np.random.default_rng(2024)
    nets = {name: load(name) for name in NETWORK_TEXTS}
    nets["one_species_dense"] = parse_network(ONE_SPECIES_DENSE)
    for name, net in nets.items():
        for _ in range(200):
            x = np.exp(rng.uniform(-8.0, 8.0, size=net.n))
            rates = np.exp(rng.uniform(-2.0, 2.0, size=len(net.reactions)))
            got = mass_action_field(net, rates, x)
            want = per_edge_field(net, rates, x)
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name


def test_batched_field_rows_equal_single_state_calls():
    rng = np.random.default_rng(77)
    nets = {name: load(name) for name in NETWORK_TEXTS}
    nets["one_species_dense"] = parse_network(ONE_SPECIES_DENSE)
    for name, net in nets.items():
        E = len(net.reactions)
        for _ in range(20):
            X = np.exp(rng.uniform(-8.0, 8.0, size=(13, net.n)))
            rows = np.exp(rng.uniform(-2.0, 2.0, size=(13, E)))
            for rates, per_row in ((rows, lambda b: rows[b]),
                                   (rows[0], lambda b: rows[0]),
                                   (None, lambda b: None)):
                got = mass_action_field(net, rates, X)
                assert got.shape == X.shape, name
                for b in range(len(X)):
                    want = mass_action_field(net, per_row(b), X[b])
                    assert np.array_equal(got[b], want), name
                    assert np.array_equal(np.signbit(got[b]),
                                          np.signbit(want)), name


def test_batched_field_input_validation():
    net = load("rev_pair")
    X = np.ones((3, 2))
    assert mass_action_field(net, None, np.ones((0, 2))).shape == (0, 2)
    with pytest.raises(DimensionMismatch):
        mass_action_field(net, np.ones((2, 2)), X)  # one rate row too few
    with pytest.raises(DimensionMismatch):
        mass_action_field(net, np.ones((1, 2)), X[0])  # rate rows need a batch
    with pytest.raises(DimensionMismatch):
        mass_action_field(net, None, np.ones((2, 3, 2)))
    with pytest.raises(ValueError):
        mass_action_field(net, None, np.array([[1.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# schedules

def test_schedule_lookup():
    sched = RateSchedule(np.array([0.0, 1.0, 2.0]),
                         np.array([[1.0], [2.0], [3.0]]))
    assert sched.rates_at(0.0) == [1.0]
    assert sched.rates_at(0.999) == [1.0]
    assert sched.rates_at(1.0) == [2.0]
    assert sched.rates_at(100.0) == [3.0]


def test_schedule_constructor_validation():
    with pytest.raises(ValueError):
        RateSchedule(np.array([0.5]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        RateSchedule(np.array([0.0, 0.0]), np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError):
        RateSchedule(np.array([0.0, 1.0]), np.array([[1.0]]))


def test_band_enforced_at_lookup():
    # the band, corners included, is enforced when the schedule is built,
    # so a lookup is plain
    band = RateBand(0.5)
    with pytest.raises(RateOutOfBand, match=r"t=1\.0 leave \[0\.5, 2\.0\]"):
        RateSchedule(np.array([0.0, 1.0]), np.array([[1.0], [3.0]]), band)
    sched = RateSchedule(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]), band)
    assert sched.rates_at(0.5) == [1.0]
    assert sched.rates_at(1.5) == [2.0]
    with pytest.raises(ValueError):
        RateBand(0.0)
    with pytest.raises(ValueError):
        RateBand(1.5)


def test_random_schedule_seeded_and_banded():
    band = RateBand(0.1)
    a = RateSchedule.random(3, band, period=1.0, horizon=10.0,
                            rng=np.random.default_rng(7))
    b = RateSchedule.random(3, band, period=1.0, horizon=10.0,
                            rng=np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (10, 3)
    assert np.all(a.values >= band.lo) and np.all(a.values <= band.hi)


@pytest.mark.parametrize("rates, band, error", [
    # nan < lo is False: no band lets NaN in
    ([math.nan, 1.0], RateBand(0.5), InputError),
    ([math.nan, 1.0], None, InputError),
    ([math.inf, 1.0], None, InputError),
    ([-math.inf, 1.0], None, ValueError),  # non-positive: as every layer
    ([0.0, 1.0], None, ValueError),
    ([-1.0, 1.0], RateBand(0.5), ValueError),
    ([2.0 * (1.0 + 2.0 ** -52), 1.0], RateBand(0.5), RateOutOfBand),  # 1/eps+
    ([0.5 * (1.0 - 2.0 ** -53), 1.0], RateBand(0.5), RateOutOfBand),  # eps-
])
def test_schedule_refuses_invalid_rates_when_built(rates, band, error):
    with pytest.raises(error):
        RateSchedule.constant(rates, band)
    with pytest.raises(error):  # in a later piece too
        RateSchedule(np.array([0.0, 1.0]), np.array([[1.0, 1.0], rates]),
                     band)


def test_schedule_arrays_are_read_only_copies():
    times, values = np.array([0.0, 1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])
    sched = RateSchedule(times, values, RateBand(0.5))
    times[1], values[1, 0] = 5.0, 0.0  # the caller's arrays stay theirs
    assert sched.times.tolist() == [0.0, 1.0]
    assert sched.values.tolist() == [[1.0, 2.0], [2.0, 1.0]]
    for array in (sched.times, sched.values, sched.rates_at(0.0)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 3.0


# ---------------------------------------------------------------------------
# integration accuracy

TIGHT = IntegratorOptions(rtol=1e-12, atol=1e-14)


def test_pair_matches_closed_form():
    net = load("rev_pair")
    traj = integrate(net, [1.0, 1.0], [2.0, 1.0], 10.0, TIGHT)
    exact = np.array([pair_closed_form(t) for t in traj.times])
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-9
    assert np.max(np.abs(traj.states[:, 1] - (3.0 - exact))) <= 1e-9
    assert traj.times[0] == 0.0 and traj.times[-1] == 10.0
    assert np.all(np.diff(traj.times) > 0)


def test_linear_invariant_preserved():
    # x1 + x2 is conserved; Runge-Kutta keeps linear invariants to roundoff
    net = load("rev_pair")
    traj = integrate(net, [1.0, 1.0], [2.0, 1.0], 10.0, TIGHT)
    assert conserved_drift(net, traj) <= 1e-12
    assert np.max(np.abs(traj.states.sum(axis=1) - 3.0)) <= 1e-12


def test_full_rank_network_has_zero_residual():
    net = load("triangle")  # stoichiometric subspace is all of R^2
    traj = integrate(net, None, [4.0, 2.0], 1.0)
    assert conserved_drift(net, traj) == 0.0


def test_fehlberg_step_fourth_order():
    # a fixed-step loop over the integrator's Fehlberg step: halving h must
    # cut the error at t = 1 by at least 8 (16 for an exact 4th order)
    net = load("rev_pair")
    errs = []
    for h, n_steps in ((0.1, 10), (0.05, 20)):
        x = np.array([[2.0, 1.0]])
        for _ in range(n_steps):
            x, _ = dynamics._rkf_step(net.kinetics, np.ones((1, 2)), x,
                                      np.array([[h]]))
            assert np.all(x > 0.0)
        errs.append(abs(x[0, 0] - pair_closed_form(1.0)))
    assert errs[0] / errs[1] >= 8.0


def test_piece_end_is_hit_exactly():
    # the last step starts at a with a + (t_end - a) != t_end: a step as
    # long as the rest of the piece must land on the piece end itself
    t_end = 0.9702012152638532
    traj = integrate(load("triangle"), None,
                     [0.5659205409099164, 2.302461912613399], t_end,
                     IntegratorOptions(3.1281646168177007e-4, 1e-9))
    a = float(traj.times[-2])
    assert a == 0.46994121364342883 and a + (t_end - a) != t_end
    assert traj.times[-1] == t_end


@pytest.mark.parametrize("rtol, atol", [
    (-1e-6, -1e-9),  # a negative error norm made the step factor complex
    (0.0, 0.0),
    (math.nan, 1e-9),
    (1e-6, math.inf),
    (-1e-6, 1e-9),
])
def test_integrator_options_refuse_bad_tolerances(rtol, atol):
    with pytest.raises(InputError, match="tolerances"):
        IntegratorOptions(rtol, atol)


def test_integrator_options_take_one_zero_tolerance():
    net = load("rev_pair")
    for opts in (IntegratorOptions(0.0, 1e-9), IntegratorOptions(1e-6, 0.0)):
        traj = integrate(net, [1.0, 1.0], [2.0, 1.0], 1.0, opts)
        assert abs(traj.states[-1, 0] - pair_closed_form(1.0)) <= 1e-5


def test_invalid_horizon():
    net = load("rev_pair")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidHorizon):
            integrate(net, None, [1.0, 1.0], bad)


def test_bad_initial_state():
    net = load("rev_pair")
    with pytest.raises(ValueError):
        integrate(net, None, [1.0, -1.0], 1.0)
    with pytest.raises(DimensionMismatch):
        integrate(net, None, [1.0, 1.0, 1.0], 1.0)
    with pytest.raises(DimensionMismatch):
        integrate(net, [1.0, 2.0, 3.0], [1.0, 1.0], 1.0)


# ---------------------------------------------------------------------------
# positivity

BOUNDARY_HIT = """
    species A
    complex (0) -> complex (-1) ; k=1
"""


def test_adaptive_positivity_underflow():
    # dx/dt = -1 reaches the boundary at t = 0.5; halving cannot rescue it
    net = parse_network(BOUNDARY_HIT)
    with pytest.raises(StepSizeUnderflow):
        integrate(net, None, [0.5], 1.0)


def test_positivity_no_false_alarm_on_decay():
    # dx/dt = -x stays positive forever; must integrate cleanly
    net = parse_network("""
        species A
        A -> 0 ; k=1
    """)
    traj = integrate(net, None, [1.0], 20.0)
    assert traj.states[-1, 0] > 0.0
    assert abs(traj.states[-1, 0] - math.exp(-20.0)) <= 1e-10


# ---------------------------------------------------------------------------
# piecewise schedules

def test_schedule_switch_hits_breakpoint_exactly():
    net = load("rev_pair")
    sched = RateSchedule(np.array([0.0, 1.0]),
                         np.array([[1.0, 1.0], [3.0, 1.0]]))
    traj = integrate(net, sched, [2.0, 1.0], 2.0, TIGHT)
    assert 1.0 in traj.times
    # piece 1: relax toward 1.5 at rate 2; piece 2: toward 0.75 at rate 4
    x1_at_1 = pair_closed_form(1.0)
    exact_end = 0.75 + (x1_at_1 - 0.75) * math.exp(-4.0)
    assert abs(traj.states[-1, 0] - exact_end) <= 1e-9


def test_band_violation_surfaces_during_integration():
    # a second piece out of band is refused when the schedule is built,
    # before any integration; without the band the same values integrate
    values = np.array([[1.0, 1.0], [30.0, 1.0]])
    with pytest.raises(RateOutOfBand, match="t=1.0"):
        RateSchedule(np.array([0.0, 1.0]), values, RateBand(0.5))
    traj = integrate(load("rev_pair"), RateSchedule(np.array([0.0, 1.0]),
                                                    values), [2.0, 1.0], 2.0)
    assert 1.0 in traj.times


def test_nonpositive_schedule_rate_raises():
    # rates are checked once, when the schedule is built, not by each
    # field evaluation; a zero rate in the second piece is refused there
    with pytest.raises(ValueError, match="strictly positive"):
        RateSchedule(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="strictly positive"):
        integrate(load("rev_pair"), [1.0, 0.0], [2.0, 1.0], 2.0)


# ---------------------------------------------------------------------------
# batches: each row of a (B, n) run equals its own B = 1 run bit for bit

TWO_SPECIES = [name for name in NETWORK_TEXTS if load(name).n == 2]


def single_runs(net, schedules, starts, t_end, opts=None):
    """B = 1 runs of each row: its Trajectory or the exception it raised."""
    out = []
    for sched, x0 in zip(schedules, starts):
        try:
            out.append(integrate(net, sched, x0, t_end, opts))
        except CheckFailed as exc:
            out.append(exc)
    return out


def assert_same_rows(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert isinstance(got, Trajectory)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)


def test_batched_rows_equal_single_runs_under_random_schedules():
    rng = np.random.default_rng(31)
    band = RateBand(0.5)
    opts = IntegratorOptions(rtol=1e-6, atol=1e-9)
    for name in TWO_SPECIES:
        net = load(name)
        starts = np.exp(rng.uniform(-2.0, 3.0, size=(4, 2)))
        schedules = [RateSchedule.random(len(net.reactions), band, 2.5, 20.0,
                                         rng) for _ in range(4)]
        batch = integrate(net, schedules, starts, 20.0, opts)
        assert_same_rows(batch, single_runs(net, schedules, starts, 20.0,
                                            opts))


def test_batched_rows_equal_single_runs_at_constant_rates():
    rng = np.random.default_rng(32)
    for name in NETWORK_TEXTS:
        net = load(name)
        starts = np.exp(rng.uniform(-2.0, 2.0, size=(3, net.n)))
        batch = integrate(net, None, starts, 10.0)
        assert_same_rows(batch, single_runs(net, [None] * 3, starts, 10.0))


# dx/dt = -k0 - k1 x: a constant drain plus a linear decay
DRAIN_AND_DECAY = """
    species A
    complex (0) -> complex (-1) ; k=1
    A -> 0 ; k=1
"""


# Fehlberg 4(5): stage coefficients and the 4th/5th-order weights
FEHLBERG = ((), (1 / 4,), (3 / 32, 9 / 32),
            (1932 / 2197, -7200 / 2197, 7296 / 2197),
            (439 / 216, -8.0, 3680 / 513, -845 / 4104),
            (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40))
FEHLBERG_W4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
FEHLBERG_W5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def scalar_rkf45(net, schedule, x0, t_end, rtol, atol):
    """Oracle: adaptive Fehlberg one state at a time, piece by piece, with
    the step-size factor computed in Python floats."""
    x = np.array(x0, dtype=float)
    times, states = [0.0], [x]
    starts = [float(t) for t in schedule.times if t < t_end]
    for t0, t1, k in zip(starts, starts[1:] + [t_end], schedule.values):
        t, h = t0, (t1 - t0) / 64.0
        while t1 - t > 1e-12 * max(1.0, abs(t1)):
            last = h >= t1 - t
            hs = (t1 - t) if last else h
            ks = []
            for a in FEHLBERG:
                arg = x + hs * sum(c * kk for c, kk in zip(a, ks)) if a else x
                if np.any(arg <= 0.0):
                    break
                ks.append(mass_action_field(net, k, arg))
            x4 = x + hs * sum(w * kk for w, kk in zip(FEHLBERG_W4, ks))
            if len(ks) < 6 or not np.all(x4 > 0.0):
                h = 0.5 * hs
                continue
            x5 = x + hs * sum(w * kk for w, kk in zip(FEHLBERG_W5, ks))
            scale = atol + rtol * np.maximum(np.abs(x), np.abs(x4))
            err = float(np.max(np.abs(x5 - x4) / scale))
            if err > 1.0:
                h = hs * max(0.2, 0.9 * err ** -0.2)
                continue
            t, x = (t1 if last else t + hs), x4
            times.append(t)
            states.append(x)
            h = hs * min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))
    return np.array(times), np.array(states)


def test_batched_rows_follow_the_scalar_controller():
    rng = np.random.default_rng(33)
    band = RateBand(0.5)
    for name in ("rev_pair", "rev_triangle_skew", "two_triangles_edge"):
        net = load(name)
        starts = np.exp(rng.uniform(-2.0, 3.0, size=(3, 2)))
        schedules = [RateSchedule.random(len(net.reactions), band, 2.5, 20.0,
                                         rng) for _ in range(3)]
        batch = integrate(net, schedules, starts, 20.0,
                          IntegratorOptions(rtol=1e-6, atol=1e-9))
        for traj, sched, x0 in zip(batch, schedules, starts):
            times, states = scalar_rkf45(net, sched, x0, 20.0, 1e-6, 1e-9)
            assert np.array_equal(traj.times, times), name
            assert np.array_equal(traj.states, states), name


def stage_arguments(net, x, h):
    """Oracle: the Fehlberg stage arguments of one state and step, up to
    the first that leaves the orthant."""
    args, ks = [], []
    for a in FEHLBERG:
        args.append(x + h * sum(c * k for c, k in zip(a, ks)) if a else x)
        if (args[-1] <= 0.0).any():
            break
        ks.append(mass_action_field(net, None, args[-1]))
    return args


def test_a_row_leaving_at_an_intermediate_stage_is_halved_alone(
        monkeypatch):
    # powerlaw_pair has exponents 0.5 and 1.5: the stages after the one
    # that leaves take square roots of negative numbers; that row must come
    # back NaN, be halved, and leave the other rows as their B = 1 runs
    net = load("powerlaw_pair")
    starts = np.array([[1.0, 1.0], [100.0, 1.0], [2.0, 0.5]])
    h = 6.0 / 64.0  # the first step of a run to t = 6
    # row 1 leaves at its fifth stage; rows 0 and 2 stay inside
    assert [len(stage_arguments(net, x, h)) for x in starts] == [6, 5, 6]
    calls = []
    step = dynamics._rkf_step

    def recorded(kin, rates, x, hs):
        x4, x5 = step(kin, rates, x, hs)
        calls.append((x, hs[:, 0].tolist(), x4))
        return x4, x5

    monkeypatch.setattr(dynamics, "_rkf_step", recorded)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = integrate(net, None, starts, 6.0)
    assert np.geterr() == before
    (x, hs, x4), (x_next, hs_next, _) = calls[:2]
    assert np.isnan(x4[1]).all() and not np.isnan(x4[[0, 2]]).any()
    assert hs[1] == h and hs_next[1] == 0.5 * h
    assert np.array_equal(x_next[1], starts[1])
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        singles = single_runs(net, [None] * 3, starts, 6.0)
    assert_same_rows(batch, singles)


# 1e300 A <-> B: x_A ** 1e300 overflows for x_A > 1
HUGE_EXPONENT = "species A B\n1e300 A <-> B ; kf=1 kr=1\n"
MIXED_EXPONENTS = "species A B\n60 A + 3 B <-> B ; kf=2 kr=0.5\n" \
                  "B <-> 40 A ; kf=1 kr=3\n"


def test_a_field_beyond_the_floats_fails_its_row_by_name(monkeypatch):
    net = parse_network(HUGE_EXPONENT)
    starts = np.array([[6.4, 2.8], [0.5, 0.25]])
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = integrate(net, None, starts, 1.0)
        with pytest.raises(FieldNotFinite, match="from edge 0 at x=.6.4, "):
            integrate(net, None, starts[0], 1.0)
    assert np.geterr() == before
    assert all(isinstance(row, FieldNotFinite) for row in rows)
    # not finite at the start itself
    assert str(rows[0]).startswith("field not finite from edge 0 at "
                                   "x=[6.4, 2.8] within ")
    # finite at (0.5, 0.25), x_A ** 1e300 == 0, but one step of d x_A / dt
    # = 2.5e299 below the minimum step reaches x_A > 1
    assert math.isfinite(mass_action_field(net, None, starts[1]).sum())
    x_a = float(str(rows[1]).split("x=[")[1].split(",")[0])
    assert 1.0 < x_a < math.inf
    # a finite field whose Euler point leaves the orthant: too stiff only
    net = parse_network(MIXED_EXPONENTS)
    rows = integrate(net, None, np.array([[6.4, 2.8], [0.5, 0.25]]), 1.0)
    assert isinstance(rows[0], StepSizeUnderflow)
    assert isinstance(rows[1], Trajectory)
    assert np.geterr() == before
    # a call that raises restores the caller's settings too
    def interrupted(*args):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(dynamics, "_rkf_step", interrupted)
    with np.errstate(over="raise", invalid="warn"):
        inner = np.geterr()
        with pytest.raises(RuntimeError, match="interrupted"):
            integrate(load("rev_pair"), None, [2.0, 1.0], 1.0)
        assert np.geterr() == inner


# sha256 of the concatenated times, states and conserved drifts of ten
# drifting rows per network, recorded before the integrator's inner loop was
# rewritten.  The batch-vs-B=1 tests above run both sides through the same
# code, so only fixed digests catch a change of the arithmetic itself.  They
# pin float64 results of numpy 2.4 on x86-64 with AVX-512 (numpy's exp and
# power kernels differ across instruction sets); on another platform,
# re-record them from the commit before an arithmetic change.
GOLDEN_DIGESTS = {
    "rev_triangle_skew": (
        "50d6a4038329ca2db8910543af414db32e7525d07a3b5efc5dd0200d477d4e1d",
        "b8dc03f4b91008dedc10fad287fc9daba1222a1c80d8b673d8305d89f5155d25",
        "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8"),
    "two_triangles_vertex": (
        "1f4ecd3787920fa432c451e01197417bba38bc6d52bfb6b56d0f324d1f00e5b6",
        "a3dd6343de284f069ed880179b3fa7d785c6d53a21086b03b1a7ab27695bd9b0",
        "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8"),
    "powerlaw_pair": (
        "316fd1f2f90d076a728d6ce4a6b5e671af02f14d490a8984e8f320cb43ee0a8e",
        "04c1771edefe34e5c451bfa1d7e145a834c7ffccadd2f8fe3707bc6d380ed2fd",
        "62908bb8ff20e7e87ccd53157d15b1ecb7b9bc0143bb5e87f60fb2d3f21ad676"),
}


@pytest.mark.parametrize("seed, name", enumerate(GOLDEN_DIGESTS, start=40))
def test_drifting_batches_match_golden_digests(seed, name):
    net = load(name)
    rng = np.random.default_rng(seed)
    starts = np.exp(rng.uniform(-2.0, 3.0, size=(10, 2)))
    schedules = [RateSchedule.random(len(net.reactions), RateBand(0.1),
                                     50.0 / 8, 50.0, rng) for _ in range(10)]
    digests = [hashlib.sha256() for _ in range(3)]
    for traj in integrate(net, schedules, starts, 50.0,
                          IntegratorOptions(rtol=1e-6, atol=1e-9)):
        digests[0].update(traj.times.tobytes())
        digests[1].update(traj.states.tobytes())
        digests[2].update(struct.pack("<d", conserved_drift(net, traj)))
    assert tuple(d.hexdigest() for d in digests) == GOLDEN_DIGESTS[name]


DRIFT = IntegratorOptions(rtol=1e-6, atol=1e-9)


def drifting_batch(seed):
    """Four rows of ``rev_triangle_skew`` from seeded starts under seeded
    eight-piece schedules in the band [0.1, 10] up to t = 50."""
    net = load("rev_triangle_skew")
    rng = np.random.default_rng(seed)
    starts = np.exp(rng.uniform(-2.0, 3.0, size=(4, 2)))
    schedules = [RateSchedule.random(len(net.reactions), RateBand(0.1),
                                     50.0 / 8, 50.0, rng) for _ in range(4)]
    return net, schedules, starts


class StepLog:
    """Counts calls of the Fehlberg step and records each time a row asks
    for its next piece as (schedule, steps so far)."""

    def __init__(self, monkeypatch):
        self.steps, self.entries = 0, []
        step, pieces = dynamics._rkf_step, dynamics._pieces

        def counted(*args):
            self.steps += 1
            return step(*args)

        def recorded(sched, t_end):
            inner = pieces(sched, t_end)
            while True:
                self.entries.append((sched, self.steps))
                piece = next(inner, None)
                if piece is None:
                    return
                yield piece

        monkeypatch.setattr(dynamics, "_rkf_step", counted)
        monkeypatch.setattr(dynamics, "_pieces", recorded)


def test_batch_steps_as_often_as_its_slowest_row(monkeypatch):
    # rows run each piece on their own clock, so a batch takes as many
    # steps as its slowest row alone, not the sum of per-piece maxima
    net, schedules, starts = drifting_batch(51)
    per_piece = []  # B = 1 step counts: a row per start, a column per piece
    for sched, x0 in zip(schedules, starts):
        log = StepLog(monkeypatch)
        integrate(net, sched, x0, 50.0, DRIFT)
        per_piece.append(np.diff([steps for _, steps in log.entries]))
    per_piece = np.array(per_piece)
    assert per_piece.shape == (4, 8)
    log = StepLog(monkeypatch)
    integrate(net, schedules, starts, 50.0, DRIFT)
    assert log.steps == per_piece.sum(axis=1).max()
    assert log.steps < per_piece.max(axis=0).sum()


def test_band_failure_in_a_later_piece_stops_only_its_row(monkeypatch):
    # a rate that leaves the band in a later piece is refused when its
    # schedule is built, so no row of a batch can fail on one mid-run
    net, schedules, starts = drifting_batch(51)
    bad = schedules[2]
    values = bad.values.copy()
    values[5, 0] = 2.0 * bad.band.hi  # piece 5 leaves the band
    with pytest.raises(RateOutOfBand, match=f"t={bad.times[5]} leave"):
        RateSchedule(bad.times, values, bad.band)
    values[5, 0] = 0.0  # unbanded, a zero rate in a later piece
    with pytest.raises(ValueError, match="strictly positive"):
        RateSchedule(bad.times, values)
    # every row of a batch of valid schedules runs all of its pieces
    log = StepLog(monkeypatch)
    batch = integrate(net, schedules, starts, 50.0, DRIFT)
    assert all(isinstance(t, Trajectory) for t in batch)
    asked = [sched for sched, _ in log.entries]
    assert all(asked.count(sched) == 9 for sched in schedules)


def test_failing_rows_leave_the_other_rows_unchanged():
    net = parse_network(DRAIN_AND_DECAY)
    schedules = [RateSchedule.constant(k) for k in
                 ([1e-3, 0.1],     # smooth decay
                  [1e-300, 100.0],  # steep decay: the first steps need halving
                  [1.0, 1e-3])]    # drained to zero near t = 0.5
    starts = np.array([[1.0], [1.0], [0.5]])
    # the steep row's first step, 1/64 of the horizon 2, leaves the orthant,
    # so it must be halved
    x4, x5 = dynamics._rkf_step(net.kinetics, schedules[1].values,
                                starts[1:2], np.array([[2.0 / 64.0]]))
    assert np.isnan(x4).all() and np.isnan(x5).all()
    singles = single_runs(net, schedules, starts, 2.0)
    assert isinstance(singles[1], Trajectory)
    assert isinstance(singles[2], StepSizeUnderflow)
    assert "below minimum" in str(singles[2])
    batch = integrate(net, schedules, starts, 2.0)
    assert_same_rows(batch, singles)
    # without the failing row the other rows come out the same
    assert_same_rows(integrate(net, schedules[:2], starts[:2], 2.0),
                     singles[:2])


def test_step_budget_fails_only_its_row(monkeypatch):
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 20)
    net = load("rev_pair")
    starts = np.array([[1.5, 1.0], [2.0, 1.0], [0.01, 5.0]])  # (1.5, 1) rests
    singles = single_runs(net, [None] * 3, starts, 10.0)
    assert isinstance(singles[0], Trajectory)
    assert str(singles[2]) == "step budget exhausted"
    assert_same_rows(integrate(net, None, starts, 10.0), singles)


def test_batch_mixes_schedules_with_different_breakpoints():
    # each row is cut at its own switch times: 29, 8, 7 and 1 pieces
    net = load("rev_triangle_skew")
    rng = np.random.default_rng(34)
    starts = np.exp(rng.uniform(-2.0, 3.0, size=(4, 2)))
    schedules = [RateSchedule.random(len(net.reactions), RateBand(0.1),
                                     period, 20.0, rng)
                 for period in (0.7, 2.5, 3.1, 20.0)]
    assert len({len(s.times) for s in schedules}) == 4
    batch = integrate(net, schedules, starts, 20.0, DRIFT)
    assert all(isinstance(t, Trajectory) for t in batch)
    assert_same_rows(batch, single_runs(net, schedules, starts, 20.0, DRIFT))


def test_batch_input_validation():
    net = load("rev_pair")
    band = RateBand(0.5)
    rng = np.random.default_rng(0)
    starts = np.ones((2, 2))
    assert integrate(net, None, np.ones((0, 2)), 1.0) == []
    one = RateSchedule.random(2, band, 0.5, 1.0, rng)
    with pytest.raises(DimensionMismatch):
        integrate(net, [one], starts, 1.0)  # one schedule per row
    with pytest.raises(DimensionMismatch):
        integrate(net, None, np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        integrate(net, None, np.array([[1.0, 1.0], [1.0, -1.0]]), 1.0)


# ---------------------------------------------------------------------------
# trajectory utilities

def test_persistence_metrics_trailing_window():
    times = np.arange(10.0)
    states = np.column_stack([10.0 - times, np.full(10, 5.0)])
    traj = Trajectory(times, states)
    # ceil(0.2 * 10) = 2 trailing samples: x1 in {2, 1}, x2 = 5
    assert np.array_equal(persistence_metrics(traj), [1.0, 5.0])
    with pytest.raises(EmptyTrajectory):
        persistence_metrics(Trajectory(np.zeros(0), np.zeros((0, 2))))


def test_csv_export_round_trips_exactly():
    net = load("rev_pair")
    traj = integrate(net, [1.0, 1.0], [2.0, 1.0], 1.0)
    text = csv_text(["t", "x1", "x2"],
                    ([t, *x] for t, x in zip(traj.times, traj.states)))
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 1 + traj.times.size
    for i, line in enumerate(lines[1:]):
        t, x1, x2 = (float(tok) for tok in line.split(","))
        assert t == traj.times[i]
        assert x1 == traj.states[i, 0]
        assert x2 == traj.states[i, 1]
