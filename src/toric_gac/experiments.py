"""Experiment drivers: persistence and global-attractor runs over sets of
initial conditions, with per-trajectory records and aggregate verdicts.

Both drivers share the same measurement core: solve the balance problem
once, anchor the Horn-Jackson Lyapunov function at each start's class Birch
point, integrate all starts to the horizon as one batch, and record the
final distance, the largest consecutive Lyapunov increase (signed), and the
trailing-window persistence minimum.  Per-trajectory numeric failures are
recorded in place (no silent skips) and do not stop the other starts;
configuration and network-level failures propagate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import integrate, persistence_metrics
from .equilibria import (
    NoComplexBalance,
    birch_point,
    lyapunov_value,
    solve_complex_balanced,
)
from .network import ReactionNetwork

_LYAPUNOV_SLACK = 1e-9  # largest consecutive increase still counted monotone


@dataclass(frozen=True)
class InitialConditions:
    """Either an explicit list of start points or a seeded uniform sampler
    over a per-species box."""

    points: tuple[tuple[float, ...], ...] | None = None
    box: tuple[float, float] = (0.1, 10.0)
    count: int = 10
    seed: int = 0

    @staticmethod
    def explicit(points) -> "InitialConditions":
        pts = tuple(tuple(float(c) for c in p) for p in points)
        if not pts:
            raise ValueError("at least one initial condition is required")
        return InitialConditions(points=pts)

    @staticmethod
    def sampled(count: int = 10, box: tuple[float, float] = (0.1, 10.0),
                seed: int = 0) -> "InitialConditions":
        if count < 1:
            raise ValueError("count must be >= 1")
        lo, hi = float(box[0]), float(box[1])
        if not (0.0 < lo < hi):
            raise ValueError("box must satisfy 0 < lo < hi")
        return InitialConditions(box=(lo, hi), count=count, seed=seed)

    def materialize(self, n_species: int) -> list[np.ndarray]:
        if self.points is not None:
            pts = [np.asarray(p, dtype=float) for p in self.points]
            for p in pts:
                if p.shape != (n_species,):
                    raise ValueError("initial condition has wrong dimension")
                if np.any(p <= 0.0):
                    raise ValueError("initial conditions must be positive")
            return pts
        rng = np.random.default_rng(self.seed)
        lo, hi = self.box
        return [rng.uniform(lo, hi, size=n_species) for _ in range(self.count)]


@dataclass(frozen=True)
class ExperimentConfig:
    epsilon: float = 1.0
    horizon: float = 50.0
    initial: InitialConditions = field(default_factory=InitialConditions)
    tol: float = 1e-6

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class TrajectoryRecord:
    initial: tuple[float, ...]
    birch: tuple[float, ...] | None = None
    final: tuple[float, ...] | None = None
    final_distance: float | None = None
    max_lyapunov_increase: float | None = None
    persistence_min: float | None = None
    floor: float | None = None
    converged: bool | None = None
    persistent: bool | None = None
    lyapunov_monotone: bool | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    horizon: float
    records: tuple[TrajectoryRecord, ...]
    all_converged: bool
    all_persistent: bool
    lyapunov_monotone: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "horizon": self.horizon,
            "trajectories": [r.to_json_dict() for r in self.records],
            "all_converged": self.all_converged,
            "all_persistent": self.all_persistent,
            "lyapunov_monotone": self.lyapunov_monotone,
            "passed": self.passed,
        }


def _measure(ic: np.ndarray, birch, traj,
             cfg: ExperimentConfig) -> TrajectoryRecord:
    """Record of one start from its Birch point and trajectory, either of
    which may be the exception that stopped it."""
    try:
        for outcome in (birch, traj):
            if isinstance(outcome, Exception):
                raise outcome
        values = lyapunov_value(traj.states, birch)
        max_inc = np.diff(values).max() if len(values) > 1 else 0.0
        final = traj.states[-1]
        dist = float(np.max(np.abs(final - birch)))
        pmin = float(np.min(persistence_metrics(traj)))
        floor = 0.5 * float(np.min(birch))
        return TrajectoryRecord(
            initial=tuple(float(c) for c in ic),
            birch=tuple(float(c) for c in birch),
            final=tuple(float(c) for c in final),
            final_distance=dist,
            max_lyapunov_increase=float(max_inc),
            persistence_min=pmin,
            floor=floor,
            converged=bool(dist <= cfg.tol),
            persistent=bool(pmin >= floor),
            lyapunov_monotone=bool(max_inc <= _LYAPUNOV_SLACK),
        )
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        return TrajectoryRecord(
            initial=tuple(float(c) for c in ic),
            error=f"{type(exc).__name__}: {exc}",
        )


def _birch(net: ReactionNetwork, ic: np.ndarray, equilibrium):
    try:
        return birch_point(net, None, ic, equilibrium=equilibrium)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        return exc


def _run(cfg: ExperimentConfig, net: ReactionNetwork,
         kind: str) -> ConvergenceReport:
    # precondition: the network must admit a vertex-balanced equilibrium
    base = solve_complex_balanced(net)
    if not base.found:
        raise NoComplexBalance(
            "experiment requires a vertex-balance-solvable network")
    starts = cfg.initial.materialize(net.n)
    birches = [_birch(net, ic, base.x0) for ic in starts]
    # every start with a Birch point is integrated in one batch
    rows = [i for i, b in enumerate(birches) if not isinstance(b, Exception)]
    trajs = dict(zip(rows, integrate(
        net, None, np.reshape([starts[i] for i in rows], (len(rows), net.n)),
        cfg.horizon)))
    records = tuple(_measure(ic, birches[i], trajs.get(i), cfg)
                    for i, ic in enumerate(starts))
    clean = [r for r in records if r.error is None]
    no_errors = len(clean) == len(records)
    all_conv = no_errors and all(r.converged for r in clean)
    all_pers = no_errors and all(r.persistent for r in clean)
    monotone = no_errors and all(r.lyapunov_monotone for r in clean)
    passed = monotone and (all_conv if kind == "global_attractor"
                           else all_pers)
    return ConvergenceReport(kind, cfg.horizon, records,
                             all_conv, all_pers, monotone, passed)


def run_persistence_experiment(cfg: ExperimentConfig,
                               net: ReactionNetwork) -> ConvergenceReport:
    """Trailing-window minima of every trajectory must reach the floor
    (default: half the smallest Birch coordinate) and the Lyapunov values
    must be nonincreasing within a slack of 1e-9."""
    return _run(cfg, net, "persistence")


def run_global_attractor_experiment(cfg: ExperimentConfig,
                                    net: ReactionNetwork) -> ConvergenceReport:
    """Every trajectory must land within cfg.tol (max-norm) of its class
    Birch point by the horizon with nonincreasing Lyapunov values."""
    return _run(cfg, net, "global_attractor")
