"""Convex cones, hyperplane arrangements, and inclusion cones.

Cones are given by finite generator sets: an (k, n) array whose rows
generate the cone by nonnegative combinations.  An empty row set is the
zero cone.  All hyperplanes pass through the origin and are stored with a
unit normal in canonical orientation (first nonzero coordinate positive),
so an arrangement never keeps two parallel normals.

The inclusion cone of an arrangement at a point X with band half-width
``delta`` collects, per hyperplane, the normal pointing from X's side
toward the hyperplane; inside a band (|n.X| < delta, strict) both signs
enter.  ``fan_inclusion_cone`` is the fan-level counterpart: it unions the
polar cones of all fan members within distance ``delta`` of X.

Cells live here: ``locate_cell`` is the one sign rule and ``cell_polars``
the one polar cache, keyed by sign row, for every caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .network import InputError

_UNIT_TOL = 1e-12
_PRUNE_TOL = 1e-10


class DimensionTooLarge(InputError):
    """Polar-cone generator computation is restricted to dimension <= 6."""


def norm(v, axis=None):
    """``np.linalg.norm(v, axis=axis)``, but with max |entry| out of (1e-150,
    1e150) each vector is first divided by its own: no inf, no false 0."""
    if 1e-150 < max(map(abs, v.ravel().tolist()), default=1.0) < 1e150:
        return np.linalg.norm(v, axis=axis)
    big = np.abs(v).max(axis=-1, keepdims=True, initial=5e-324)  # no 0 / 0
    return big[..., 0] * np.linalg.norm(v / big, axis=-1)


@dataclass(frozen=True)
class Hyperplane:
    """Linear hyperplane {x : normal . x = 0}, |normal| = 1."""

    normal: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.normal, float)
        if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
            raise ValueError("hyperplane normal must have unit length")

    @staticmethod
    def from_vector(vec) -> "Hyperplane":
        """Normalize and canonicalize the sign (first nonzero coordinate
        positive)."""
        v = np.asarray(vec, dtype=float)
        nrm = norm(v)
        if nrm == 0.0:
            raise ValueError("zero vector does not define a hyperplane")
        v = v / nrm
        for x in v:
            if x != 0.0:
                if x < 0.0:
                    v = -v
                break
        return Hyperplane(tuple(v))

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.normal, float)


@dataclass(frozen=True)
class Arrangement:
    """Finite set of distinct hyperplanes (deduplicated up to sign)."""

    hyperplanes: tuple[Hyperplane, ...]

    @staticmethod
    def from_vectors(vecs) -> "Arrangement":
        kept: list[Hyperplane] = []
        for v in vecs:
            h = Hyperplane.from_vector(v)
            hv = h.vector
            if all(np.linalg.norm(hv - k.vector) > 1e-12 for k in kept):
                kept.append(h)
        return Arrangement(tuple(kept))

    def normal_matrix(self) -> np.ndarray:
        if not self.hyperplanes:
            return np.zeros((0, 0))
        return np.array([h.normal for h in self.hyperplanes], dtype=float)

    def __len__(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True)
class ConeMembership:
    """Outcome of a membership query with an auditable certificate: the
    nonnegative combination on acceptance, a separating ``witness`` w with
    w.g_i <= 0 for all generators and w.v > 0 on rejection."""

    contained: bool
    residual: float
    coefficients: np.ndarray | None
    witness: np.ndarray | None


def _as_gen_array(gens, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(gens, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, dim if dim is not None else arr.shape[-1] if arr.ndim == 2 else 0)
    if arr.ndim != 2:
        raise ValueError("generators must form a 2-d array (rows = vectors)")
    return arr


def cone_membership(gens, v, tol: float = 1e-9) -> ConeMembership:
    """Least-squares test of v in cone(gens) with relative tolerance
    ``tol * max(1, |v|)``.  Certificates are always produced."""
    from scipy.optimize import nnls  # the NNLS oracle stays off the import path

    v = np.asarray(v, dtype=float)
    g = _as_gen_array(gens, v.size)
    bound = tol * max(1.0, float(np.linalg.norm(v)))
    if g.shape[0] == 0:
        resid = float(np.linalg.norm(v))
        if resid <= bound:
            return ConeMembership(True, resid, np.zeros(0), None)
        return ConeMembership(False, resid, None, v.copy())
    lam, resid = nnls(g.T, v, maxiter=10 * max(g.shape[0], v.size, 10))
    if resid <= bound:
        return ConeMembership(True, float(resid), lam, None)
    w = v - g.T @ lam
    return ConeMembership(False, float(resid), None, w)


def cone_contains(gens, v, tol: float = 1e-9) -> bool:
    return cone_membership(gens, v, tol).contained


def point_to_cone_distance(gens, x) -> float:
    """Euclidean distance from x to cone(gens); |x| for the zero cone."""
    return cone_membership(gens, x).residual


# ---------------------------------------------------------------------------
# polar cones by face enumeration


def polar_cone(gens, dim: int | None = None) -> np.ndarray:
    """Generators of {v : v . g <= 0 for every generator g}.

    The polar splits into the null space of the generator matrix (its
    lineality, returned as a +- basis) and a pointed part inside the row
    space, whose extreme rays are the feasible null directions of
    rank r-1 row subsets.  Desk scale only: dimension <= 6.
    """
    g = np.asarray(gens, dtype=float)
    if g.size == 0:
        if dim is None:
            g = g.reshape(0, -1)
            n = g.shape[1]
        else:
            n = dim
        if n == 0:
            raise ValueError("ambient dimension is required for the zero cone")
        eye = np.eye(n)
        return np.concatenate([eye, -eye], axis=0)
    if g.ndim != 2:
        raise ValueError("generators must form a 2-d array")
    n = g.shape[1]
    if n > 6:
        raise DimensionTooLarge(f"polar cone limited to dimension 6, got {n}")

    rows = [a / np.linalg.norm(a) for a in g
            if np.linalg.norm(a) > _PRUNE_TOL]
    if not rows:
        eye = np.eye(n)
        return np.concatenate([eye, -eye], axis=0)
    mat = np.array(rows)
    _, sing, vt = np.linalg.svd(mat)
    r = int(np.sum(sing > 1e-12 * sing[0]))
    rays: list[np.ndarray] = []
    for b in vt[r:]:
        rays.append(b.copy())
        rays.append(-b)
    basis = vt[:r].T  # orthonormal row-space basis, n x r
    proj = mat @ basis  # constraints in row-space coordinates, rank r
    if r == 1:
        cands = [np.array([1.0]), np.array([-1.0])]
    else:
        cands = []
        for subset in itertools.combinations(range(proj.shape[0]), r - 1):
            sub = proj[list(subset)]
            _, s2, vt2 = np.linalg.svd(sub)
            if int(np.sum(s2 > 1e-9 * max(float(s2[0]), 1.0))) != r - 1:
                continue  # degenerate subset: no unique null direction
            cands.append(vt2[r - 1])
            cands.append(-vt2[r - 1])
    for w in cands:
        if float(np.max(proj @ w)) > 1e-9:
            continue
        v = basis @ w
        v = v / np.linalg.norm(v)
        if all(np.linalg.norm(v - u) > 1e-9 for u in rays):
            rays.append(v)
    return np.array(rays).reshape(len(rays), n)


# ---------------------------------------------------------------------------
# arrangements, cells, inclusion cones


def locate_cell(arr: Arrangement, X, delta: float) -> np.ndarray:
    """Sign row of a point X, or one per row of a (T, n) batch, as int8: 0
    whenever |normal . X| < delta (strict), else the sign of normal . X."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    X = np.asarray(X, dtype=float)
    d = X @ arr.normal_matrix().reshape(-1, X.shape[-1]).T
    return np.where(np.abs(d) < delta, 0, np.sign(d)).astype(np.int8)


def cell_cone(arr: Arrangement, signs, n: int) -> np.ndarray:
    """Inclusion-cone generators of the cell with sign vector ``signs``: per
    hyperplane the normal oriented from the cell's side toward it; both
    orientations on a band (sign 0)."""
    gens: list[np.ndarray] = []
    for h, s in zip(arr.hyperplanes, signs):
        v = h.vector
        if s == 0:
            gens.append(v)
            gens.append(-v)
        else:
            gens.append(-s * v)
    return np.array(gens).reshape(len(gens), n)


_POLAR_CELLS = 1024  # cached cells over all arrangements
_polar_tables: dict[Arrangement, dict[bytes, np.ndarray]] = {}


def _cells(signs: np.ndarray):
    """Distinct sign rows and each row's index among them, as
    ``np.unique(signs, axis=0, return_inverse=True)`` gives them, through
    base-3 row keys while 3^H fits in int64."""
    if 3 ** signs.shape[1] > 2 ** 63:
        return np.unique(signs, axis=0, return_inverse=True)
    key = (signs + 1).astype(np.int64) @ 3 ** np.arange(signs.shape[1])[::-1]
    _, first, cell_of = np.unique(key, return_index=True, return_inverse=True)
    return signs[first], cell_of


def cell_polars(arr: Arrangement, signs: np.ndarray,
                n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """(polars, cell_of) for (T, H) int8 sign rows: the read-only polar of
    ``cell_cone`` of each distinct row (no rows where that cone is all of
    space) and each row's index among them.  The arrangement's table is
    found with one hash of ``arr``; the tables hold at most
    ``_POLAR_CELLS`` cells and are emptied when full."""
    cells, cell_of = _cells(signs)
    table = _polar_tables.setdefault(arr, {})
    width = cells.shape[1]
    flat = cells.tobytes()
    polars = []
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
        polars.append(polar)
    return polars, cell_of.ravel()


def inclusion_cone(arr: Arrangement, delta: float, X) -> np.ndarray:
    """Generators of the inclusion cone at X: ``cell_cone`` of X's cell."""
    X = np.asarray(X, dtype=float)
    return cell_cone(arr, locate_cell(arr, X, delta), X.size)


def fan_inclusion_cone(fan, delta: float, X) -> np.ndarray:
    """Union of polar-cone generators over all fan cones within (strict)
    distance ``delta`` of X.  ``fan`` is an iterable of generator arrays."""
    X = np.asarray(X, dtype=float)
    gens: list[np.ndarray] = []
    for cone in fan:
        if point_to_cone_distance(cone, X) < delta:
            polar = polar_cone(cone, dim=X.size)
            gens.extend(polar)
    return np.array(gens).reshape(len(gens), X.size)
