"""Embedding of banded-rate mass-action systems into uncertainty-cone
differential inclusions, with pointwise and every-rate sampled verification.

The certificate for a weakly reversible network consists of the hyperplane
arrangement orthogonal to all vertex differences inside each covering
cycle, plus a single band half-width delta0 chosen so that outside every
band the ordered cycle monomials dominate each other strongly enough to
keep the field inside the cell's inclusion cone.  Shared cover edges split
their rate equally across cycles, which the effective per-cycle band
epsilon/m_max accounts for.

Sampled verification covers every rate vector in the band at each sampled
state.  The field f(k) = sum_e k_e x^(y_e) c_e is linear in k and the
cell's inclusion cone C is a closed polyhedral cone, so f(k) lies in C for
every k in [lo, hi]^E exactly when, for each generator w of the polar cone
of C, the worst rate corner (k_e = hi where w.c_e > 0, else lo) keeps
w.f(k) <= 0.  This is closed form.  The polar generators depend only on the
arrangement and the cell's sign vector; they are cached per arrangement,
keyed by sign row, and one stacked pass checks every sampled state against
its own cell's generators, whatever the number of visited cells.
``verify_embedding_at`` checks one rate vector with NNLS and is the oracle
a failure replays through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RateBand, RateSchedule, mass_action_field
from .geometry import (
    Arrangement,
    ConeMembership,
    cell_cone,
    cone_membership,
    inclusion_cone,
    polar_cone,
)
from .network import (
    CycleCover,
    NotWeaklyReversible,
    ReactionNetwork,
    cycle_cover,
    is_weakly_reversible,
)


class CoincidentVertices(ValueError):
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
    """Everything needed to replay one failed trial: the state, the polar
    generator ``witness`` w that the field leaves the cone through, w's
    worst rate corner ``rates`` and the margin w.f(rates) > 0 as
    ``residual``."""

    trial: int
    x: tuple[float, ...]
    log_x: tuple[float, ...]
    rates: tuple[float, ...]
    residual: float
    witness: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "x": list(self.x),
            "log_x": list(self.log_x),
            "rates": list(self.rates),
            "residual": self.residual,
            "witness": list(self.witness),
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


_POLAR_CELLS = 1024  # cached cells over all arrangements
_TRIAL_BLOCK = 1024  # trials per gathered contraction
_polar_tables: dict[Arrangement, dict[bytes, np.ndarray]] = {}


def _polar_generators(arr: Arrangement, cells: np.ndarray,
                      n: int) -> list[np.ndarray]:
    """Read-only polar generators of the inclusion cone of each cell, one
    int8 sign row of ``cells`` per cell; no rows where that cone is all of
    space.  The arrangement's table, keyed by sign row, is found with one
    hash of ``arr``; the tables hold at most ``_POLAR_CELLS`` cells and are
    emptied when full."""
    table = _polar_tables.setdefault(arr, {})
    width = cells.shape[1]
    flat = cells.tobytes()
    out = []
    for c in range(len(cells)):
        key = flat[c * width:(c + 1) * width]
        polar = table.get(key)
        if polar is None:
            polar = polar_cone(cell_cone(arr, cells[c].tolist(), n), dim=n)
            polar.flags.writeable = False
            if sum(map(len, _polar_tables.values())) >= _POLAR_CELLS:
                _polar_tables.clear()
                table = _polar_tables[arr] = {}
            table[key] = polar
        out.append(polar)
    return out


def _cells(signs: np.ndarray):
    """Distinct sign rows and each row's index among them, as
    ``np.unique(signs, axis=0, return_inverse=True)`` gives them, through
    base-3 row keys while 3^H fits in int64.  The cell order reaches no
    output: each trial is checked against its own cell's generators."""
    if 3 ** signs.shape[1] > 2 ** 63:
        return np.unique(signs, axis=0, return_inverse=True)
    key = (signs + 1).astype(np.int64) @ 3 ** np.arange(signs.shape[1])[::-1]
    _, first, cell_of = np.unique(key, return_index=True, return_inverse=True)
    return signs[first], cell_of


def sample_verify_embedding(cert: EmbeddingCertificate, net: ReactionNetwork,
                            band: RateBand, trials: int, box=(-8.0, 8.0),
                            seed: int = 0, tol: float = 1e-9) -> SampleReport:
    """Every-rate verification at log states uniform in the box.

    A state passes when every polar generator w of its cell's inclusion
    cone satisfies  sum_e x^(y_e) max(lo w.c_e, hi w.c_e) <= tol * max(1,
    hi sum_e x^(y_e) |c_e|),  the right side bounding |f(k)| over the band;
    then the field lies in the cone for every rate vector in the band.
    Monomials come from log x, shifted by each row's largest positive
    log-monomial, so no power of x is formed.  A failure carries the state,
    the maximising w (``witness``), its worst corner (``rates``) and the
    margin w.f(rates) (``residual``); NNLS ``verify_embedding_at`` rejects
    that corner too.  Each trial draws n + E uniforms, the state from the
    first n, so a seed samples the states a per-trial ``rng.uniform`` loop
    over the box and the log rates would.

    All visited cells are checked in one stacked pass: their generators are
    zero-padded to a (C, G, n) stack, every trial is contracted with its
    own cell's worst-corner matrix, in blocks of ``_TRIAL_BLOCK`` trials,
    and padded rows never win the maximum.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not is_weakly_reversible(net):
        raise NotWeaklyReversible("sampling requires a weakly reversible network")
    nbox = _normalize_box(box, net.n)
    kin, n = net.kinetics, net.n
    lo, hi = np.array(nbox).T
    u = np.random.default_rng(seed).random((trials, n + len(kin.k)))
    log_x = lo + (hi - lo) * u[:, :n]
    d = log_x @ cert.arrangement.normal_matrix().reshape(-1, n).T
    signs = np.where(np.abs(d) < cert.delta0, 0, np.sign(d)).astype(np.int8)
    log_mono = log_x @ kin.Ys.T
    shift = log_mono.max(axis=1, initial=0.0)
    mono = np.exp(log_mono - shift[:, None])
    bound = tol * np.maximum(np.exp(-shift), band.hi * (
        mono @ np.linalg.norm(kin.D, axis=1)))
    cells, cell_of = _cells(signs)
    cell_of = cell_of.ravel()
    polars = _polar_generators(cert.arrangement, cells, n)
    counts = np.fromiter(map(len, polars), dtype=np.intp, count=len(polars))
    # G >= 1 even when every visited cone is all of space and has no rows
    valid = np.arange(max(1, counts.max())) < counts[:, None]
    stack = np.zeros(valid.shape + (n,))
    stack[valid] = np.concatenate(polars)
    a = stack @ kin.D.T
    worst = np.where(a > 0.0, band.hi * a, band.lo * a)
    margin = np.empty(trials)
    best = np.empty(trials, dtype=np.intp)
    for s in range(0, trials, _TRIAL_BLOCK):
        blk = slice(s, s + _TRIAL_BLOCK)
        c = cell_of[blk]
        vals = np.einsum("te,tge->tg", mono[blk], worst[c])
        vals[~valid[c]] = -np.inf
        best[blk] = vals.argmax(axis=1)
        margin[blk] = vals.max(axis=1)
    fail = np.flatnonzero(margin > bound)
    witness = stack[cell_of[fail], best[fail]]
    failures = []
    for w, t in zip(witness, fail):
        rates = np.where(kin.D @ w > 0.0, band.hi, band.lo)
        failures.append(FailureWitness(
            int(t), tuple(np.exp(log_x[t])), tuple(log_x[t]), tuple(rates),
            float(margin[t] * np.exp(shift[t])), tuple(w)))
    return SampleReport(trials, trials - len(failures), tuple(failures), seed,
                        band.epsilon, nbox)
