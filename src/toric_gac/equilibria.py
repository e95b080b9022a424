"""Vertex-balanced equilibria, tree constants, Lyapunov evaluation, and
Birch points.

A positive state x0 is vertex balanced when at every vertex the incoming
mass-action flows sum to the outgoing ones.  The positive kernel of each
linkage class's flow Laplacian is spanned by the rooted in-tree weights
(matrix-tree theorem).  Each class has one Laplacian, made integral by a
power of two: ``network._bareiss`` takes its minors exactly, rounded once
to float, and the Laplacian over a power of two checks the kernel.  Solving
y_v . log x0 = log K_v + alpha_class in least squares decides existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DimensionMismatch, _edge_rates, flows, mass_action_field
from .network import (
    CheckFailed,
    InputError,
    NotWeaklyReversible,
    ReactionNetwork,
    _bareiss,
    is_weakly_reversible,
    linkage_classes,
    stoichiometric_subspace,
)

_BIRCH_TOL = 1e-10  # reduced-gradient norm at which the Birch Newton stops
_BIRCH_MAX_ITER = 80


class SingularSystem(CheckFailed):
    pass


class NoComplexBalance(CheckFailed):
    pass


class NewtonDivergence(CheckFailed):
    pass


@dataclass(frozen=True)
class TreeConstants:
    """Per-vertex rooted in-tree weights K, grouped by linkage class.

    K[v] = sum over spanning in-trees rooted at v of the product of edge
    rates; positive on every weakly reversible network.
    """

    K: tuple[float, ...]
    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of a balance solve: x0 (or None), the per-vertex balance
    residual at x0 with rates normalized to max 1, and how x0 was found."""

    x0: tuple[float, ...] | None
    residual: tuple[float, ...]
    method: str  # "tree_solve"

    @property
    def found(self) -> bool:
        return self.x0 is not None

    def to_json_dict(self) -> dict:
        return {
            "x0": None if self.x0 is None else list(self.x0),
            "residual": list(self.residual),
            "method": self.method,
        }


def vertex_balance_residual(net: ReactionNetwork, rates, x0) -> np.ndarray:
    """Per-vertex inflow minus outflow of mass-action flux at x0.  Each
    edge's flow is added to its target and subtracted from its source in
    edge order (``np.add.at`` is unbuffered), as a loop over the edges
    would."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n,):
        raise DimensionMismatch(f"state has shape {x0.shape}, species {net.n}")
    if np.any(x0 <= 0.0):
        raise ValueError("state must be strictly positive")
    kin = net.kinetics
    flow = flows(kin, _edge_rates(net, rates), x0)
    out = np.zeros(net.m)
    np.add.at(out, np.column_stack([kin.target, kin.source]).ravel(),
              np.column_stack([flow, -flow]).ravel())
    return out


# ---------------------------------------------------------------------------
# tree constants

def _class_laplacian(net: ReactionNetwork, members, k: np.ndarray):
    """(lap, D): the class's out-degree Laplacian times D, the largest
    power-of-two denominator of its rates, which makes ``lap`` integral."""
    idx = {v: i for i, v in enumerate(members)}
    edges = [(idx[r.source], idx[r.target], w.as_integer_ratio())
             for r, w in zip(net.reactions, k.tolist()) if r.source in idx]
    D = max((q for *_, (_, q) in edges), default=1)
    lap = [[0] * len(members) for _ in members]
    for u, v, (p, q) in edges:
        lap[u][v] -= p * (D // q)
        lap[u][u] += p * (D // q)
    return lap, D


def _ratio(p: int, q: int) -> float:
    """p / q correctly rounded (int / int is), or +-inf past the float range."""
    try:
        return p / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _intree_weights(lap, D) -> list[float]:
    """Matrix-tree route, exact: on c vertices, K[v] is the minor of ``lap``
    without v's row and column over D**(c - 1), rounded once.  The reduced
    Laplacian of a weakly reversible class is a nonsingular M-matrix, so
    each column of :func:`_bareiss` pivots on its first row and the last
    pivot is the minor; a one-vertex class gives 1."""
    minors = (_bareiss([[x for j, x in enumerate(row) if j != i]
                        for r, row in enumerate(lap) if r != i])[1]
              for i in range(len(lap)))
    return [_ratio(minor, D ** (len(lap) - 1)) for minor in minors]


def tree_constants(net: ReactionNetwork, rates=None) -> TreeConstants:
    """Rooted in-tree weights per vertex: the exact matrix-tree minors of
    each class, correctly rounded to float."""
    if not is_weakly_reversible(net):
        raise NotWeaklyReversible("tree constants need a weakly reversible network")
    return _tree_constants(net, _edge_rates(net, rates))


def _tree_constants(net: ReactionNetwork, k: np.ndarray) -> TreeConstants:
    """``tree_constants`` at checked rates on a weakly reversible network."""
    classes = linkage_classes(net)
    K = np.zeros(net.m)
    for members in classes:
        lap, D = _class_laplacian(net, members, k)
        vec = np.array(_intree_weights(lap, D))
        if not np.all(np.isfinite(vec)) or np.any(vec <= 0.0):
            raise SingularSystem(
                f"tree constants not finite positive in class {members}")
        # flow matrix (M c)_v = sum_{u->v} k c_u - c_v sum_{v->u} k over the
        # power of two above lap's largest entry: no overflow, same residual
        q = 1 << max(abs(x) for row in lap for x in row).bit_length()
        M = np.array([[-x / q for x in col] for col in zip(*lap)])
        scale = max(float(np.max(np.abs(M))), 1e-300) * float(np.max(vec))
        resid = float(np.max(np.abs(M @ vec))) / scale
        if not (resid <= 1e-10):
            raise SingularSystem(
                f"tree constants fail the kernel check: residual {resid}")
        K[members] = vec
    return TreeConstants(tuple(K.tolist()), classes)


# ---------------------------------------------------------------------------
# balance solving

def solve_complex_balanced(net: ReactionNetwork, rates=None,
                           tol: float = 1e-10) -> EquilibriumReport:
    """Find x0 > 0 with zero vertex balance if one exists.

    Solves y_v . X = log K_v + alpha_class (minimum-norm least squares in
    X = log x0 and the free per-class offsets), then accepts or rejects by
    the balance residual at exp(X) with rates normalized to max 1.
    """
    if not is_weakly_reversible(net):
        raise NotWeaklyReversible("balance solve needs a weakly reversible network")
    k = _edge_rates(net, rates)
    tc = _tree_constants(net, k)
    logK = np.log(np.array(tc.K))
    if not np.all(np.isfinite(logK)):
        raise SingularSystem("tree constants overflow or underflow the log scale")
    A = np.zeros((net.m, net.n + len(tc.classes)))
    A[:, :net.n] = net.kinetics.Y
    for ci, members in enumerate(tc.classes):
        A[list(members), net.n + ci] = 1.0
    try:
        sol, *_ = np.linalg.lstsq(A, logK, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    X = sol[:net.n]
    if not np.all(np.isfinite(X)):
        raise SingularSystem("log solve produced non-finite state")
    x0 = np.exp(X)
    k_norm = k / float(np.max(k))
    if not k_norm.all():
        raise InputError("rates span more than the float range")
    resid = vertex_balance_residual(net, k_norm, x0)
    if float(np.max(np.abs(resid))) <= tol:
        return EquilibriumReport(tuple(x0), tuple(resid), "tree_solve")
    return EquilibriumReport(None, tuple(resid), "tree_solve")


# ---------------------------------------------------------------------------
# Lyapunov function and Birch points

def lyapunov_value(x, x0) -> float | np.ndarray:
    """V(x; x0) = sum_i x_i (ln x_i - ln x0_i - 1) + x0_i; zero exactly at
    x = x0, strictly convex on the open orthant.  A (K, n) stack of states
    gives the K values, each bit-equal to its own one-state call."""
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x.shape[-1:] != x0.shape or x.ndim > 2:
        raise DimensionMismatch(f"shapes {x.shape} and {x0.shape} differ")
    if np.any(x <= 0.0) or np.any(x0 <= 0.0):
        raise ValueError("states must be strictly positive")
    v = np.sum(x * (np.log(x) - np.log(x0) - 1.0) + x0, axis=-1)
    return v if x.ndim == 2 else float(v)


def lyapunov_gradient(x, x0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x.shape != x0.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {x0.shape} differ")
    if np.any(x <= 0.0) or np.any(x0 <= 0.0):
        raise ValueError("states must be strictly positive")
    return np.log(x) - np.log(x0)


def lyapunov_derivative(net: ReactionNetwork, rates, x, x0) -> float:
    """Directional derivative of V along the mass-action field at x."""
    grad = lyapunov_gradient(x, x0)
    f = mass_action_field(net, rates, np.asarray(x, dtype=float))
    return float(np.dot(grad, f))


def birch_point(net: ReactionNetwork, rates, x_ref,
                equilibrium=None) -> np.ndarray:
    """Minimizer of V(.; x0) over (x_ref + S0) intersected with the open
    orthant, via damped Newton on the reduced strictly convex problem.

    The returned point is the unique vertex-balanced equilibrium in the
    compatibility class of x_ref.  ``equilibrium`` is a vertex-balanced
    equilibrium x0 of the same rates, reused across many x_ref; None
    solves for one.
    """
    if equilibrium is None:
        report = solve_complex_balanced(net, rates)
        if not report.found:
            raise NoComplexBalance("no vertex-balanced equilibrium exists")
        equilibrium = report.x0
    x0 = np.array(equilibrium, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if x_ref.shape != (net.n,):
        raise DimensionMismatch(f"x_ref has shape {x_ref.shape}, species {net.n}")
    if np.any(x_ref <= 0.0):
        raise ValueError("x_ref must be strictly positive")
    basis, s = stoichiometric_subspace(net)
    if s == 0:
        return x_ref.copy()

    lnx0 = np.log(x0)
    u = np.zeros(s)
    x = x_ref.copy()
    for _ in range(_BIRCH_MAX_ITER):
        grad = basis.T @ (np.log(x) - lnx0)
        if float(np.linalg.norm(grad)) <= _BIRCH_TOL:
            return x
        hess = basis.T @ (basis / x[:, None])
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence(f"singular reduced Hessian: {exc}") from exc
        base = lyapunov_value(x, x0)
        alpha = 1.0
        for _ in range(60):
            cand = u + alpha * step
            xc = x_ref + basis @ cand
            if np.all(xc > 0.0) and lyapunov_value(xc, x0) <= base + 1e-12:
                u, x = cand, xc
                break
            alpha *= 0.5
        else:
            raise NewtonDivergence(
                f"line search stalled; gradient norm {np.linalg.norm(grad)}")
    raise NewtonDivergence(
        f"no convergence in {_BIRCH_MAX_ITER} iterations; "
        f"gradient norm {np.linalg.norm(basis.T @ (np.log(x) - lnx0))}")
