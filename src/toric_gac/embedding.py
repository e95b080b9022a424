"""Embedding of banded-rate mass-action systems into uncertainty-cone
differential inclusions, with pointwise and sampled verification.

The certificate for a weakly reversible network consists of the hyperplane
arrangement orthogonal to all vertex differences inside each covering
cycle, plus a single band half-width delta0 chosen so that outside every
band the ordered cycle monomials dominate each other strongly enough to
keep the field inside the cell's inclusion cone.  Shared cover edges split
their rate equally across cycles, which the effective per-cycle band
epsilon/m_max accounts for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RateBand, RateSchedule, mass_action_field
from .geometry import Arrangement, ConeMembership, cone_membership, inclusion_cone
from .network import (
    CycleCover,
    NotWeaklyReversible,
    ReactionNetwork,
    cycle_cover,
    is_weakly_reversible,
)


class CoincidentVertices(ValueError):
    pass


class TieOnProjection(ValueError):
    pass


class OrderingMismatch(ValueError):
    pass


def delta_for_edge(epsilon: float, y, yp) -> float:
    """Band half-width 2 |ln epsilon| / |yp - y| forced by a rate band
    [epsilon, 1/epsilon] on the edge y -> yp."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    diff = np.asarray(yp, dtype=float) - np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        raise CoincidentVertices("edge endpoints coincide")
    return 2.0 * abs(math.log(epsilon)) / norm


@dataclass(frozen=True, eq=False)
class EmbeddingCertificate:
    """Arrangement + band half-width that contain every field value of the
    banded system, plus the cycle cover and per-cycle effective bands that
    justify them."""

    arrangement: Arrangement
    delta0: float
    cover: CycleCover
    epsilon_split: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "normals": [list(h.normal) for h in self.arrangement.hyperplanes],
            "delta0": self.delta0,
            "cycles": [list(c) for c in self.cover.cycles],
            "multiplicities": {f"{u}->{v}": m
                               for (u, v), m in sorted(self.cover.multiplicity.items())},
            "epsilon_split": list(self.epsilon_split),
        }


def build_embedding(net: ReactionNetwork, band: RateBand) -> EmbeddingCertificate:
    """Certificate construction: cover the edges by cycles, split the band
    by the worst edge multiplicity, collect one hyperplane per vertex pair
    inside each cycle, and take the largest per-pair half-width."""
    cover = cycle_cover(net)  # raises NotWeaklyReversible
    m_max = max(cover.multiplicity.values()) if cover.multiplicity else 1
    eps_i = band.epsilon / m_max
    ymat = net.kinetics.Y
    vectors = []
    delta0 = 0.0
    for cyc in cover.cycles:
        for a in range(len(cyc)):
            for b in range(a + 1, len(cyc)):
                u, v = cyc[a], cyc[b]
                vectors.append(ymat[u] - ymat[v])
                delta0 = max(delta0, delta_for_edge(eps_i, ymat[v], ymat[u]))
    arrangement = Arrangement.from_vectors(vectors)
    return EmbeddingCertificate(arrangement, delta0, cover,
                                tuple(eps_i for _ in cover.cycles))


@dataclass(frozen=True)
class CycleOrdering:
    """Cycle vertices sorted so the witness projections strictly decrease:
    (order[l+1] - order[l]) . w < 0 for every l."""

    order: tuple[int, ...]
    w: tuple[float, ...]


def cycle_ordering(cycle, ymat, w) -> CycleOrdering:
    """Sort the cycle's vertices by decreasing w-projection of their
    exponent vectors.  A tie means w lies on a difference hyperplane."""
    w = np.asarray(w, dtype=float)
    proj = {v: float(np.dot(w, ymat[v])) for v in cycle}
    vals = sorted(proj.values(), reverse=True)
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise TieOnProjection(
                "witness vector projects two cycle vertices equally")
    order = tuple(sorted(cycle, key=lambda v: proj[v], reverse=True))
    return CycleOrdering(order, tuple(float(c) for c in w))


def phi_coefficients(net: ReactionNetwork, cycle, rates, x,
                     ordering: CycleOrdering) -> np.ndarray:
    """Coefficients of the cycle field on the basis (v_{l+1} - v_l) of the
    ordered vertices: edge v_m -> v_n adds its flux to the coefficients
    between the two positions (positively when m < n).

    ``cycle`` lists vertices in edge order; edge i runs cycle[i] ->
    cycle[(i+1) % r] with rate rates[i].
    """
    r = len(cycle)
    if sorted(cycle) != sorted(ordering.order):
        raise OrderingMismatch("ordering covers a different vertex set")
    pos = {v: i for i, v in enumerate(ordering.order)}
    ymat = net.kinetics.Y
    x = np.asarray(x, dtype=float)
    phi = np.zeros(r - 1)
    for i in range(r):
        u = cycle[i]
        v = cycle[(i + 1) % r]
        flux = float(rates[i]) * float(np.prod(x ** ymat[u]))
        m, n = pos[u], pos[v]
        if m < n:
            phi[m:n] += flux
        else:
            phi[n:m] -= flux
    return phi


def ordered_basis(net: ReactionNetwork, ordering: CycleOrdering) -> np.ndarray:
    """Rows v_{l+1} - v_l of the ordering's difference basis."""
    ymat = net.kinetics.Y
    o = ordering.order
    return np.array([ymat[o[l + 1]] - ymat[o[l]] for l in range(len(o) - 1)])


def verify_embedding_at(cert: EmbeddingCertificate, net: ReactionNetwork,
                        schedule: RateSchedule, t: float, x,
                        tol: float = 1e-9) -> ConeMembership:
    """Membership of the field value in the inclusion cone at log x, with
    the nonnegative combination or a separating witness."""
    x = np.asarray(x, dtype=float)
    v = mass_action_field(net, schedule.rates_at(t), x)
    gens = inclusion_cone(cert.arrangement, cert.delta0, np.log(x))
    return cone_membership(gens, v, tol)


@dataclass(frozen=True, eq=False)
class FailureWitness:
    """Everything needed to replay one failed trial."""

    trial: int
    x: tuple[float, ...]
    log_x: tuple[float, ...]
    rates: tuple[float, ...]
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "x": list(self.x),
            "log_x": list(self.log_x),
            "rates": list(self.rates),
            "residual": self.residual,
        }


@dataclass(frozen=True, eq=False)
class SampleReport:
    trials: int
    passes: int
    failures: tuple[FailureWitness, ...]
    seed: int
    epsilon: float
    box: tuple[tuple[float, float], ...]

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "passes": self.passes,
            "failures": [f.to_json_dict() for f in self.failures],
            "seed": self.seed,
            "epsilon": self.epsilon,
            "box": [list(b) for b in self.box],
        }


def _normalize_box(box, n: int) -> tuple[tuple[float, float], ...]:
    arr = np.asarray(box, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (n, 1))
    if arr.shape != (n, 2) or np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError(f"box must be (lo, hi) or shape ({n}, 2) with lo <= hi")
    return tuple((float(lo), float(hi)) for lo, hi in arr)


def sample_verify_embedding(cert: EmbeddingCertificate, net: ReactionNetwork,
                            band: RateBand, trials: int, box=(-8.0, 8.0),
                            seed: int = 0, tol: float = 1e-9) -> SampleReport:
    """Randomized verification: log states uniform in the box, edge rates
    log-uniform in [epsilon, 1/epsilon].  Failures carry full replay data."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not is_weakly_reversible(net):
        raise NotWeaklyReversible("sampling requires a weakly reversible network")
    nbox = _normalize_box(box, net.n)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in nbox])
    hi = np.array([b[1] for b in nbox])
    log_lo, log_hi = math.log(band.lo), math.log(band.hi)
    n_edges = len(net.reactions)
    passes = 0
    failures = []
    for trial in range(trials):
        log_x = rng.uniform(lo, hi)
        rates = np.exp(rng.uniform(log_lo, log_hi, size=n_edges))
        x = np.exp(log_x)
        schedule = RateSchedule.constant(rates, band)
        result = verify_embedding_at(cert, net, schedule, 0.0, x, tol)
        if result.contained:
            passes += 1
        else:
            failures.append(FailureWitness(
                trial, tuple(x), tuple(log_x), tuple(rates), result.residual))
    return SampleReport(trials, passes, tuple(failures), seed,
                        band.epsilon, nbox)
