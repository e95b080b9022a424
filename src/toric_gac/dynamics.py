"""Mass-action vector fields, time-varying rate schedules, and a
positivity-preserving adaptive integrator that advances a batch of
trajectories at once.

The field of a network with rates k is  sum_e k_e x^(y_src(e)) (y_tgt(e) -
y_src(e)), accumulated left-to-right over the edge list so repeated runs
reproduce bit-identical floating-point results.  The field reads the
network's ``kinetics`` arrays: each monomial is a product along one row of
``Ys``, and ``np.add.accumulate`` sums the per-edge terms one edge at a
time, as a loop adding them into a zero vector would; ``mass_action_field``
then adds 0.0, turning -0.0 into +0.0 as that zero vector does.
``np.add.reduce`` would not do: on a one-species network with eight or
more edges it sums pairwise and changes the last bits.

Shapes.  A state is an (n,) vector and a batch is a (B, n) array; the field
of a batch takes one shared (E,) rate vector or one (B, E) row of rates per
state and returns (B, n).  A single state is the B = 1 case of the same
code, so each row of a batch is bit-identical to a single-state call.

Rate schedules are piecewise constant; when a schedule carries a
:class:`RateBand`, every queried value must stay inside [epsilon,
1/epsilon].

The integrator is one adaptive explicit Runge-Kutta-Fehlberg pair: it
propagates the 4th-order solution and controls the step with the embedded
5th-order estimate; ``IntegratorOptions`` sets only its relative and
absolute tolerances.  Each piece starts with a step of 1/64 of its length.
Steps that would leave the open positive orthant are halved, never
clamped.  A row whose step falls below ``_H_MIN`` fails with
:class:`FieldNotFinite` if the field is not finite at its state or at the
Euler point of that step, else with :class:`StepSizeUnderflow`, as after
``_MAX_STEPS`` steps.  ``integrate`` advances the rows of a (B, n) start
batch together, each through the schedule's pieces on its own clock, so a
batch takes as many steps as its slowest row; a failing row stops alone.
A row's time, piece end, edge, step size and accept/reject decision are
Python floats; numpy holds only states, rates and error norms.  numpy's
vectorised power differs from the scalar one in the last bit for some
arguments (about 5% with AVX-512 kernels), so a step factor ``0.9 * err **
-0.2`` computed in numpy would make a row differ from its B = 1 run.  A
step decides once, over all its stage arguments, which rows left the
orthant; such a row comes back NaN whatever its later stages made of the
point outside.  One ``np.errstate`` around the whole row loop keeps their
warnings, and those of overflowing monomials, inside ``integrate``; one
per step would cost about 2 us.  ``integrate`` checks the horizon, starts
and schedules, and a row entering a piece its rates (out of band fails the
row, non-positive raises ``ValueError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (CheckFailed, InputError, ReactionNetwork,
                      stoichiometric_subspace)


class DimensionMismatch(InputError):
    pass


class RateOutOfBand(InputError):
    pass


class StepSizeUnderflow(CheckFailed):
    pass


class FieldNotFinite(CheckFailed):
    pass


class InvalidHorizon(InputError):
    pass


class EmptyTrajectory(InputError):
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
        k = self.values[max(int(np.searchsorted(self.times, t, "right")) - 1, 0)]
        if self.band is not None:
            if np.any(k < self.band.lo) or np.any(k > self.band.hi):
                raise RateOutOfBand(
                    f"rates at t={t} leave [{self.band.lo}, {self.band.hi}]")
        return k

    def breakpoints_within(self, t0: float, t1: float) -> np.ndarray:
        return self.times[(self.times > t0) & (self.times < t1)]


def _edge_rates(net: ReactionNetwork, rates, rows: int | None = None
                ) -> np.ndarray:
    """One positive finite rate per edge: the network's stored rates when
    ``rates`` is None, otherwise ``rates`` checked against the edge count.
    With ``rows`` given, one (rows, E) row of rates per state also fits."""
    if rates is None:
        return net.kinetics.k
    rates = np.asarray(rates, dtype=float)
    edges = net.kinetics.k.shape
    if rates.shape != edges and (rows is None or rates.shape != (rows, *edges)):
        raise DimensionMismatch(
            f"expected {len(net.reactions)} rates, got shape {rates.shape}")
    if (rates <= 0.0).any():
        raise ValueError("rates must be strictly positive")
    if (bad := np.flatnonzero(~np.isfinite(rates))).size:
        raise InputError(f"rate of edge {bad[0] % rates.shape[-1]} is not "
                         f"finite: {rates.flat[bad[0]]}")
    return rates


def mass_action_field(net: ReactionNetwork, rates, x) -> np.ndarray:
    """Field value at a strictly positive state (n,), or at each row of a
    (B, n) batch.  ``rates`` may be None to use the rates stored on the
    network's reactions; a batch also takes one (B, E) row of rates per
    state."""
    x = np.asarray(x, dtype=float)
    n = net.n
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise DimensionMismatch(f"state has shape {x.shape}, species {n}")
    if (x <= 0.0).any():
        raise ValueError("state must be strictly positive")
    X = x.reshape(-1, n)
    k = _edge_rates(net, rates, len(X) if x.ndim == 2 else None)
    out = _field(net.kinetics, k, X) + 0.0  # +0.0: no -0.0
    return out if x.ndim == 2 else out[0]


def flows(kin, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-edge flux k_e x^(y_src(e)): (E,) for a state, (B, E) for a batch."""
    return k * np.multiply.reduce(x[..., None, :] ** kin.Ys, axis=-1)


def _field(kin, k, X) -> np.ndarray:
    """Unchecked field at each row of the (B, n) batch ``X``; -0.0 kept."""
    if not kin.D.size:
        return np.zeros(X.shape)
    terms = flows(kin, k, X)[:, :, None] * kin.D
    return np.add.accumulate(terms, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# integration

_H_MIN = 1e-13  # smallest step a row may take before it fails
_MAX_STEPS = 5_000_000  # step budget of one row


@dataclass(frozen=True)
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-12


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


# _USES[j]: stage j's field in the seven sums (stage arguments, solutions)
_SUMS = (_B2, _B3, _B4, _B5, _B6, _W4, _W5)
_USES = [np.array([c[j] for c in _SUMS[j:]])[:, None, None] for j in range(6)]


def _rkf_step(kin, rates, x, h):
    """4th- and 5th-order Fehlberg solutions of each positive row of ``x``
    with its ``rates`` row and step ``h`` (a column); both NaN for a row
    whose stage argument leaves the orthant.  A -0.0 field entry changes no
    sum: ``acc`` rows start at +0.0.  Each sum adds its terms in tableau
    order, as a term-by-term sum would."""
    h = h.repeat(x.shape[1], axis=1)  # full width: no broadcast below
    acc, args, arg = np.zeros((7, *x.shape)), np.empty((5, *x.shape)), x
    for j, uses in enumerate(_USES):
        acc[j:] += uses * _field(kin, rates, arg)
        if j < 5:  # the next stage's argument
            arg = np.add(x, h * acc[j], out=args[j])
    x4, x5 = x + h * acc[5], x + h * acc[6]
    if np.count_nonzero(out := args <= 0.0):  # one orthant decision
        left = out.any(axis=(0, 2))
        x4[left] = x5[left] = np.nan
    return x4, x5


def _row_schedules(net: ReactionNetwork, rates_or_schedule,
                   rows: int) -> list[RateSchedule]:
    """One schedule per row: a sequence of schedules is taken row by row,
    anything else (None, a rate vector, one schedule) is shared."""
    given = rates_or_schedule
    if isinstance(given, (list, tuple)) and given \
            and isinstance(given[0], RateSchedule):
        if len(given) != rows:
            raise DimensionMismatch(
                f"{len(given)} schedules for {rows} start states")
        schedules = list(given)
    else:
        if not isinstance(given, RateSchedule):
            given = RateSchedule.constant(_edge_rates(net, given))
        schedules = [given] * rows
    if any(sched.n_edges != len(net.reactions) for sched in schedules):
        raise DimensionMismatch("schedule width does not match edge count")
    return schedules


def integrate(net: ReactionNetwork, rates_or_schedule, x0, t_end: float,
              opts: IntegratorOptions | None = None):
    """Integrate dx/dt = field(t, x) on [0, t_end] from a positive state.

    Piecewise-constant schedules are integrated piece by piece so the
    switch times are hit exactly.  Raises :class:`InvalidHorizon` for
    t_end <= 0 and :class:`StepSizeUnderflow` when positivity or accuracy
    cannot be maintained above the minimum step.

    A (B, n) ``x0`` integrates B trajectories at once, under one shared
    rate vector or schedule or under a sequence of B schedules (each row is
    cut at its own breakpoints), and returns a list with one entry per row:
    its :class:`Trajectory`, or the exception that stopped that row alone.
    """
    if opts is None:
        opts = IntegratorOptions()
    if not (t_end > 0.0) or not math.isfinite(t_end):
        raise InvalidHorizon(f"horizon must be positive and finite, got {t_end}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != net.n:
        raise DimensionMismatch(f"x0 has shape {x0.shape}, species {net.n}")
    if np.any(x0 <= 0.0):
        raise ValueError("x0 must be strictly positive")
    starts = x0.reshape(-1, net.n)
    schedules = _row_schedules(net, rates_or_schedule, len(starts))
    rows = _integrate_rows(net, schedules, starts, t_end, opts)
    if x0.ndim == 2:
        return rows
    if isinstance(rows[0], Exception):
        raise rows[0]
    return rows[0]


def _pieces(sched: RateSchedule, t_end: float):
    """The pieces of [0, t_end] cut at the schedule's breakpoints that are
    longer than their edge, as Python floats (start, end, edge, first step)
    and the piece's rates.  Each piece looks its rates up (out of band
    raises :class:`RateOutOfBand`), and one to be integrated needs them
    positive."""
    cuts = [0.0, *sched.breakpoints_within(0.0, t_end).tolist(), float(t_end)]
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        k, edge = sched.rates_at(t0), 1e-12 * max(1.0, abs(t1))
        if t1 - t0 > edge:
            if (k <= 0.0).any():
                raise ValueError("rates must be strictly positive")
            yield t0, t1, edge, (t1 - t0) / 64, k


def _underflow(kin, k, x, h, t) -> CheckFailed:
    """FieldNotFinite, naming the first edge whose term takes the running
    sum out of the floats, if the field is not finite at ``x`` or at the
    positive Euler point x + h f(x); else StepSizeUnderflow for ``h``."""
    y = x
    for _ in range(2):  # the state, then its Euler point
        sums = np.add.accumulate(flows(kin, k, y)[:, None] * kin.D)
        if (y > 0.0).all() and (bad := ~np.isfinite(sums).all(axis=1)).any():
            return FieldNotFinite(f"field not finite from edge {bad.argmax()}"
                                  f" at x={y.tolist()} within {h} of t={t}")
        y = x + h * sums[-1]
    return StepSizeUnderflow(f"step {h} below minimum at t={t}")


def _integrate_rows(net, schedules, starts, t_end, opts) -> list:
    """Each row's Trajectory, or the exception that stopped that row."""
    kin, B = net.kinetics, len(starts)
    failed: list[Exception | None] = [None] * B
    log = [(np.arange(B), np.zeros(B), starts)]  # accepted (rows, t, x) blocks
    pieces = [_pieces(sched, t_end) for sched in schedules]
    # running rows: ids, states, rates; Python floats for times, piece ends
    # and edges, step sizes.  Each has taken ``steps`` steps
    w, xw, kw, steps = np.arange(B), starts, np.empty((B, len(kin.k))), 0
    tw, t1w, ew, hw = ([0.0] * B for _ in range(4))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            keep, hs, over = [], [], steps > _MAX_STEPS
            for i in range(len(w)):
                if not t1w[i] - tw[i] > ew[i]:  # enter the next piece or end
                    try:
                        piece = next(pieces[w[i]], None)
                    except RateOutOfBand as exc:
                        failed[w[i]], piece = exc, None
                    if piece is None:
                        continue
                    tw[i], t1w[i], ew[i], hw[i], kw[i] = piece
                if over or (h := min(hw[i], t1w[i] - tw[i])) < _H_MIN:
                    failed[w[i]] = StepSizeUnderflow("step budget exhausted") \
                        if over else _underflow(kin, kw[i], xw[i], h, tw[i])
                else:
                    keep.append(i)
                    hs.append(h)
            if len(keep) < len(w):
                w, xw, kw = w[keep], xw[keep], kw[keep]
                tw, t1w, ew = ([a[i] for i in keep] for a in (tw, t1w, ew))
            if not keep:
                break
            steps += 1
            x4, x5 = _rkf_step(kin, kw, xw, np.array(hs)[:, None])
            lows = x4.min(axis=1).tolist()  # > 0: x4 stayed in the orthant
            scale = opts.atol + opts.rtol * np.maximum(xw, x4)
            err = (np.abs(x5 - x4) / scale).max(axis=1).tolist()
            hw, ok = [], []
            for i, (e, low, h) in enumerate(zip(err, lows, hs)):
                # Python floats: numpy's vector power rounds differently
                hw.append(h * (0.5 if not low > 0.0 else
                               max(0.2, 0.9 * e ** -0.2) if e > 1.0 else
                               min(5.0, max(0.2, 0.9 * (e + 1e-16) ** -0.2))))
                ok.append(low > 0.0 and not e > 1.0)
                if ok[i]:  # a step as long as the rest lands on the piece end
                    tw[i] = t1w[i] if h == t1w[i] - tw[i] else tw[i] + h
            sel = slice(None) if all(ok) else np.array(ok)  # masks on a reject
            xw = x4 if all(ok) else np.where(sel[:, None], x4, xw)
            log.append((w[sel], np.array(tw)[sel], xw[sel]))

    rows, ts, xs = (np.concatenate(c) for c in zip(*log))
    order = np.argsort(rows, kind="stable")
    cut = np.cumsum(np.bincount(rows, minlength=B))[:-1]
    times, states = np.split(ts[order], cut), np.split(xs[order], cut)
    basis, s = stoichiometric_subspace(net)
    out: list = []
    for r, exc in enumerate(failed):
        drift = states[r] - starts[r]
        perp = drift - (drift @ basis) @ basis.T
        # a trivial orthogonal complement keeps an exact zero
        resid = 0.0 if s == net.n else float(np.linalg.norm(perp, axis=1).max())
        out.append(exc or Trajectory(times[r], states[r], resid))
    return out


def persistence_metrics(traj: Trajectory) -> np.ndarray:
    """Per-species minimum over the trailing fifth of the samples."""
    if traj.times.size == 0:
        raise EmptyTrajectory("trajectory holds no samples")
    k = max(1, int(math.ceil(0.2 * traj.times.size)))
    return np.min(traj.states[-k:], axis=0)
