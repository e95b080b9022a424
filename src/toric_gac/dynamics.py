"""Mass-action vector fields, time-varying rate schedules, and a
positivity-preserving adaptive integrator.

The field of a network with rates k is  sum_e k_e x^(y_src(e)) (y_tgt(e) -
y_src(e)), accumulated left-to-right over the edge list so repeated runs
reproduce bit-identical floating-point results.  The field reads the
network's ``kinetics`` arrays: each monomial is a product along one row of
``Ys``, and the unbuffered ``np.add.at`` adds the per-edge terms into a
zero vector one edge at a time, exactly as a loop over the edges would.
``np.add.reduce`` over the edge axis would not: on a one-species network
with eight or more edges it sums pairwise and changes the last bits.

Rate schedules are piecewise constant; when a schedule carries a
:class:`RateBand`, every queried value must stay inside [epsilon,
1/epsilon].

The integrator is an explicit Runge-Kutta-Fehlberg pair: it propagates the
4th-order solution and controls the step with the embedded 5th-order
estimate.  Steps that would leave the open positive orthant are halved,
never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ReactionNetwork, stoichiometric_subspace


class DimensionMismatch(ValueError):
    pass


class RateOutOfBand(ValueError):
    pass


class StepSizeUnderflow(RuntimeError):
    pass


class InvalidHorizon(ValueError):
    pass


class EmptyTrajectory(ValueError):
    pass


@dataclass(frozen=True)
class RateBand:
    """Admissible rate interval [epsilon, 1/epsilon], 0 < epsilon <= 1."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")

    @property
    def lo(self) -> float:
        return self.epsilon

    @property
    def hi(self) -> float:
        return 1.0 / self.epsilon


@dataclass(frozen=True, eq=False)
class RateSchedule:
    """Piecewise-constant per-edge rates.

    ``values[i]`` applies on [times[i], times[i+1]); the final row extends
    to infinity.  ``times[0]`` must be 0.
    """

    times: np.ndarray
    values: np.ndarray
    band: RateBand | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if t.ndim != 1 or t.size == 0 or t[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must increase strictly")
        if v.shape[0] != t.size:
            raise ValueError("one value row per breakpoint required")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(rates, band: RateBand | None = None) -> "RateSchedule":
        rates = np.asarray(rates, dtype=float)
        return RateSchedule(np.zeros(1), rates[None, :], band)

    @staticmethod
    def random(n_edges: int, band: RateBand, period: float, horizon: float,
               rng: np.random.Generator) -> "RateSchedule":
        """Seeded log-uniform piecewise-constant schedule with the given
        switching period."""
        if period <= 0 or horizon <= 0:
            raise ValueError("period and horizon must be positive")
        n_pieces = max(1, int(math.ceil(horizon / period)))
        times = np.arange(n_pieces) * period
        lo, hi = math.log(band.lo), math.log(band.hi)
        values = np.exp(rng.uniform(lo, hi, size=(n_pieces, n_edges)))
        return RateSchedule(times, values, band)

    @property
    def n_edges(self) -> int:
        return self.values.shape[1]

    def rates_at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = max(idx, 0)
        k = self.values[idx]
        if self.band is not None:
            if np.any(k < self.band.lo) or np.any(k > self.band.hi):
                raise RateOutOfBand(
                    f"rates at t={t} leave [{self.band.lo}, {self.band.hi}]")
        return k

    def breakpoints_within(self, t0: float, t1: float) -> np.ndarray:
        inside = self.times[(self.times > t0) & (self.times < t1)]
        return inside


def _edge_rates(net: ReactionNetwork, rates) -> np.ndarray:
    """One positive rate per edge: the network's stored rates when
    ``rates`` is None, otherwise ``rates`` checked against the edge count."""
    if rates is None:
        return net.kinetics.k
    rates = np.asarray(rates, dtype=float)
    if rates.shape != net.kinetics.k.shape:
        raise DimensionMismatch(
            f"expected {len(net.reactions)} rates, got shape {rates.shape}")
    if np.any(rates <= 0.0):
        raise ValueError("rates must be strictly positive")
    return rates


def mass_action_field(net: ReactionNetwork, rates, x) -> np.ndarray:
    """Field value at a strictly positive state.  ``rates`` may be None to
    use the rates stored on the network's reactions."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise DimensionMismatch(f"state has shape {x.shape}, species {net.n}")
    if np.any(x <= 0.0):
        raise ValueError("state must be strictly positive")
    kin = net.kinetics
    terms = kin.flows(_edge_rates(net, rates), x)[:, None] * kin.D
    out = np.zeros((1, net.n))
    np.add.at(out, np.zeros(len(terms), dtype=np.intp), terms)
    return out[0]


def k_variable_field(net: ReactionNetwork, schedule: RateSchedule, t: float,
                     x) -> np.ndarray:
    """Field with time-varying rates; shares the accumulation path of the
    constant-rate evaluator so constant schedules agree bit-for-bit."""
    return mass_action_field(net, schedule.rates_at(t), x)


# ---------------------------------------------------------------------------
# integration

@dataclass(frozen=True)
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-12
    h_init: float | None = None
    h_min: float = 1e-13
    h_max: float = math.inf
    fixed_step: float | None = None
    max_steps: int = 5_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted sample points plus the worst observed drift of the
    conserved (orthogonal-to-stoichiometric) coordinates."""

    times: np.ndarray
    states: np.ndarray
    conserved_residual: float


# Fehlberg 4(5) tableau
_B2 = (1 / 4,)
_B3 = (3 / 32, 9 / 32)
_B4 = (1932 / 2197, -7200 / 2197, 7296 / 2197)
_B5 = (439 / 216, -8.0, 3680 / 513, -845 / 4104)
_B6 = (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40)
_W4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_W5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


class _PositivityViolation(Exception):
    pass


def _rkf_step(f, x, h):
    def stage(arg):
        if np.any(arg <= 0.0):
            raise _PositivityViolation
        return f(arg)

    k1 = stage(x)
    k2 = stage(x + h * (_B2[0] * k1))
    k3 = stage(x + h * (_B3[0] * k1 + _B3[1] * k2))
    k4 = stage(x + h * (_B4[0] * k1 + _B4[1] * k2 + _B4[2] * k3))
    k5 = stage(x + h * (_B5[0] * k1 + _B5[1] * k2 + _B5[2] * k3 + _B5[3] * k4))
    k6 = stage(x + h * (_B6[0] * k1 + _B6[1] * k2 + _B6[2] * k3
                        + _B6[3] * k4 + _B6[4] * k5))
    ks = (k1, k2, k3, k4, k5, k6)
    x4 = x + h * sum(w * k for w, k in zip(_W4, ks))
    x5 = x + h * sum(w * k for w, k in zip(_W5, ks))
    return x4, x5


def integrate(net: ReactionNetwork, rates_or_schedule, x0, t_end: float,
              opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate dx/dt = field(t, x) on [0, t_end] from a positive state.

    Piecewise-constant schedules are integrated piece by piece so the
    switch times are hit exactly.  Raises :class:`InvalidHorizon` for
    t_end <= 0 and :class:`StepSizeUnderflow` when positivity or accuracy
    cannot be maintained above the minimum step.
    """
    if opts is None:
        opts = IntegratorOptions()
    if not (t_end > 0.0) or not math.isfinite(t_end):
        raise InvalidHorizon(f"horizon must be positive and finite, got {t_end}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, species {net.n}")
    if np.any(x0 <= 0.0):
        raise ValueError("x0 must be strictly positive")
    schedule = rates_or_schedule
    if not isinstance(schedule, RateSchedule):
        schedule = RateSchedule.constant(_edge_rates(net, schedule))
    elif schedule.n_edges != len(net.reactions):
        raise DimensionMismatch("schedule width does not match edge count")

    times = [0.0]
    states = [x0.copy()]
    cuts = [0.0, *schedule.breakpoints_within(0.0, t_end), t_end]

    x = x0.copy()
    steps = 0
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        rates = schedule.rates_at(t0)
        f = lambda y: mass_action_field(net, rates, y)  # noqa: E731
        t = t0
        if opts.fixed_step is not None:
            h = opts.fixed_step
        else:
            h = opts.h_init if opts.h_init is not None else (t1 - t0) / 64.0
        h = min(h, opts.h_max, t1 - t0)
        edge = 1e-12 * max(1.0, abs(t1))
        while t1 - t > edge:
            if steps > opts.max_steps:
                raise StepSizeUnderflow("step budget exhausted")
            steps += 1
            last = h >= t1 - t
            h_step = (t1 - t) if last else h
            if h_step < opts.h_min:
                raise StepSizeUnderflow(f"step {h_step} below minimum at t={t}")
            try:
                x4, x5 = _rkf_step(f, x, h_step)
                positive = bool(np.all(x4 > 0.0))
            except _PositivityViolation:
                positive = False
            if not positive:
                if opts.fixed_step is not None:
                    raise StepSizeUnderflow(
                        f"fixed step {h_step} leaves the positive orthant at t={t}")
                h = 0.5 * h_step
                continue
            if opts.fixed_step is None:
                scale = opts.atol + opts.rtol * np.maximum(np.abs(x), np.abs(x4))
                err = float(np.max(np.abs(x5 - x4) / scale))
                if err > 1.0:
                    h = h_step * max(0.2, 0.9 * err ** -0.2)
                    continue
                t = t1 if last else t + h_step
                x = x4
                times.append(t)
                states.append(x.copy())
                h = h_step * min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))
                h = min(h, opts.h_max)
            else:
                t = t1 if last else t + h_step
                x = x4
                times.append(t)
                states.append(x.copy())

    states_arr = np.array(states)
    basis, s = stoichiometric_subspace(net)
    if s == net.n:
        resid = 0.0  # orthogonal complement is trivial
    else:
        drift = states_arr - x0[None, :]
        perp = drift - (drift @ basis) @ basis.T
        resid = float(np.max(np.linalg.norm(perp, axis=1)))
    return Trajectory(np.array(times), states_arr, resid)


def persistence_metrics(traj: Trajectory, tail_fraction: float = 0.2) -> np.ndarray:
    """Per-species minimum over the trailing window of samples."""
    if traj.times.size == 0:
        raise EmptyTrajectory("trajectory holds no samples")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must lie in (0, 1]")
    k = max(1, int(math.ceil(tail_fraction * traj.times.size)))
    return np.min(traj.states[-k:], axis=0)
