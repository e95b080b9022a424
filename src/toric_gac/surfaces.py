"""Zero-separating polygonal curves in 2D and sampled surface
certificates in any dimension.

A curve from the x1-axis side to the x2-axis side separates the origin
from the rest of the open quadrant.  It certifies invariance of the far
region when at every point the local inclusion cone lies on the outward
side: g . nu >= 0 for every cone generator g, nu the outward unit normal.

Construction: the curve descends monotonically (x1 strictly decreasing,
x2 strictly increasing).  Hyperplanes whose log-space line enters the
open third quadrant are crossed once each, in the angular order of their
interior directions, by straight state-space segments parallel to the
hyperplane normal (so nu _|_ n exactly inside the band); between bands a
connector runs along the middle direction of the sector's admissible
normal cone (a cached cell polar), and junctions come from bisection.
``verify_curve_exact``, which decides the invariance condition at every
point of the curve, is the one acceptance gate: a chain it rejects, or one
that turns back, is rebuilt at half the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorOptions, RateBand, RateSchedule, integrate
from .geometry import Arrangement, cell_cone, cell_polars, locate_cell
from .network import CheckFailed, ReactionNetwork

_SCALE_FLOOR = 1e-300
_MAX_HALVINGS = 1000


class BandsOverlap(CheckFailed):
    pass


class _RetryScale(Exception):
    pass


@dataclass(frozen=True, eq=False)
class CurveSegment:
    """Straight state-space segment with outward unit normal; band_index
    names the hyperplane whose band the segment crosses, None for
    connectors."""

    start: tuple[float, float]
    end: tuple[float, float]
    normal: tuple[float, float]
    band_index: int | None


@dataclass(frozen=True, eq=False)
class PolygonalCurve2D:
    """Simple monotone chain from near the x1-axis to near the x2-axis."""

    segments: tuple[CurveSegment, ...]
    scale: float
    delta: float

    def __post_init__(self):
        if not self.segments:
            raise ValueError("curve needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.end != b.start:
                raise ValueError("segments must chain end-to-start")
        verts = self.vertices
        for p, q in zip(verts, verts[1:]):
            if not (q[0] < p[0] and q[1] > p[1]):
                raise ValueError("chain must decrease in x1 and increase in x2")
        for p in verts:
            if p[0] <= 0.0 or p[1] <= 0.0:
                raise ValueError("curve must stay in the open quadrant")
        for seg in self.segments:
            nu = np.array(seg.normal)
            if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
                raise ValueError("segment normals must be unit vectors")
            if nu[0] < -1e-12 or nu[1] < -1e-12:
                raise ValueError("normals must point away from the origin side")
            chord = np.array(seg.end) - np.array(seg.start)
            # the floor covers coordinate roundoff on hops much shorter
            # than the endpoint magnitudes
            tol = 1e-9 * float(np.linalg.norm(chord)) + 1e-13 * max(
                abs(c) for c in seg.start + seg.end)
            if abs(float(nu @ chord)) > tol:
                raise ValueError("normal must be orthogonal to its segment")

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return (self.segments[0].start,) + tuple(s.end for s in self.segments)

    def to_json_dict(self) -> dict:
        return {
            "scale": self.scale,
            "delta": self.delta,
            "segments": [{
                "start": list(s.start),
                "end": list(s.end),
                "normal": list(s.normal),
                "band_index": s.band_index,
            } for s in self.segments],
        }


@dataclass(frozen=True, eq=False)
class SurfaceCertificate:
    """Sampled surface: (point, outward unit normal) pairs plus the mesh
    spacing they were drawn at."""

    samples: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    h: float

    def __post_init__(self):
        for x, nu in self.samples:
            if any(c <= 0.0 for c in x):
                raise ValueError("sample points must be strictly positive")
            if abs(math.sqrt(sum(c * c for c in nu)) - 1.0) > 1e-9:
                raise ValueError("sample normals must be unit vectors")

    def to_json_dict(self) -> dict:
        return {
            "h": self.h,
            "samples": [{"x": list(x), "nu": list(nu)} for x, nu in self.samples],
        }


# ---------------------------------------------------------------------------
# construction

def _crossing_order(arr: Arrangement) -> list[int]:
    """Indices of hyperplanes whose lines enter the open third quadrant
    (canonical normals with n1 > 0 > n2), ordered as met from the x1-axis
    side: steepest interior direction first."""
    idx = [i for i, h in enumerate(arr.hyperplanes)
           if h.normal[0] > 0.0 and h.normal[1] < 0.0]
    # interior direction d = (n2, -n1); slope |d2|/|d1| = n1/(-n2)
    idx.sort(key=lambda i: arr.hyperplanes[i].normal[0]
             / (-arr.hyperplanes[i].normal[1]), reverse=True)
    return idx


def _interior_direction(n) -> np.ndarray:
    return np.array([n[1], -n[0]])


def _mid_normal(rays: np.ndarray) -> np.ndarray:
    """Angular midpoint of the admissible normal cone clipped to the open
    positive quadrant (normals there give monotone travel directions)."""
    if rays.shape[0] != 2:
        raise _RetryScale
    angs = sorted(math.atan2(r[1], r[0]) for r in rays)
    lo, hi = angs
    if hi - lo > math.pi:  # rays straddle the angle seam
        lo, hi = hi, lo + 2.0 * math.pi
    lo = max(lo, 1e-12)
    hi = min(hi, 0.5 * math.pi - 1e-12)
    if not lo < hi:
        raise _RetryScale
    mid = 0.5 * (lo + hi)
    return np.array([math.cos(mid), math.sin(mid)])


def _first_hit(p: np.ndarray, u: np.ndarray, n: np.ndarray, level: float) -> float:
    """Smallest tau > 0 with n . log(p + tau u) = level.  Requires the
    projection to be strictly decreasing along u and to start above the
    level; the positivity boundary brackets the root."""
    def f(tau):
        q = p + tau * u
        return float(n @ np.log(q)) - level

    if f(0.0) <= 0.0:
        raise _RetryScale
    limits = [-p[c] / u[c] for c in range(2) if u[c] < 0.0]
    tau_max = min(limits) * (1.0 - 1e-12)
    if f(tau_max) > 0.0:
        raise _RetryScale
    lo, hi = 0.0, tau_max
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _axis_hit(p: np.ndarray, u: np.ndarray, x1_target: float) -> float:
    if u[0] >= 0.0 or p[0] <= x1_target:
        raise _RetryScale
    return (x1_target - p[0]) / u[0]


def _construct(arr: Arrangement, delta: float, scale: float) -> PolygonalCurve2D:
    tiny = 1e-10 * scale
    order = _crossing_order(arr)
    pad = delta + max(0.001 * delta, 1e-4)

    start = np.array([scale, tiny])

    # bands the start is not clearly above are not crossed; the exact gate
    # rejects the chain if one of them is entered anyway
    crossings: list[int] = []
    for i in order:
        v = float(arr.hyperplanes[i].vector @ np.log(start))
        if v > pad:
            crossings.append(i)
    k = len(crossings)

    if k == 0:
        nu = (math.sqrt(0.5), math.sqrt(0.5))
        seg = CurveSegment(tuple(start), (tiny, scale), nu, None)
        return PolygonalCurve2D((seg,), scale, delta)

    ns = [np.array(arr.hyperplanes[i].normal) for i in crossings]
    dirs = [_interior_direction(arr.hyperplanes[i].normal) for i in crossings]
    segments: list[CurveSegment] = []

    def connector(p, probe, pos):
        """Append the connector from p along the middle normal of the
        sector holding ``probe`` to the entry of crossing ``pos`` (the axis
        corridor when pos == k); return its end.  {nu : nu . g >= 0 on the
        probe's cell cone} is the polar at the negated sign row."""
        polars, _ = cell_polars(arr, -locate_cell(arr, probe, 0.0)[None], 2)
        nu_c = _mid_normal(polars[0])
        u_c = np.array([-nu_c[1], nu_c[0]])
        if pos == k:
            tau = _axis_hit(p, u_c, tiny)
        else:
            tau = _first_hit(p, u_c, ns[pos], pad)
        q = p + tau * u_c
        segments.append(CurveSegment(tuple(p), tuple(q),
                                     (float(nu_c[0]), float(nu_c[1])), None))
        return q

    p = start
    for pos, hyp in enumerate(crossings):
        n = ns[pos]
        u = -n  # travel direction (-, +): n . log x strictly decreasing
        if pos == 0:
            # absorb the leading run into the first crossing segment when
            # the band exit stays clear of the axis corridor; otherwise
            # approach the band through the start cell first
            try:
                tau_try = _first_hit(p, u, n, -pad)
                absorbed = p[0] + tau_try * u[0] >= 10.0 * tiny
            except _RetryScale:
                absorbed = False
            if not absorbed:
                p = connector(p, np.log(p), 0)
        tau = _first_hit(p, u, n, -pad)
        at_axis = pos == k - 1 and p[0] <= tiny  # inside the axis corridor
        if pos == k - 1 and not at_axis:
            # absorb the trailing run into the crossing when the band is
            # already behind by the time the corridor is reached
            tau_axis = _axis_hit(p, u, tiny)
            if tau_axis >= tau:
                tau, at_axis = tau_axis, True
        q = p + tau * u
        nu = -dirs[pos]
        segments.append(CurveSegment(tuple(p), tuple(q),
                                     (float(nu[0]), float(nu[1])), hyp))
        p = q
        if pos < k - 1:
            # connector across the sector between this crossing and the next
            p = connector(p, dirs[pos] + dirs[pos + 1], pos + 1)
        elif not at_axis:
            # trailing connector through the final sector to the axis
            connector(p, dirs[pos] + np.array([-1.0, 0.0]), k)

    verts = [segments[0].start] + [seg.end for seg in segments]
    if any(not (w[0] < v[0] and w[1] > v[1]) for v, w in zip(verts, verts[1:])):
        raise _RetryScale  # a chain that turns back
    return PolygonalCurve2D(tuple(segments), scale, delta)


def build_zero_separating_curve_2d(arr: Arrangement, delta: float,
                                   scale: float = 1e-3) -> PolygonalCurve2D:
    """Curve at distance ~scale from the origin crossing every band of the
    arrangement once.  Each tentative chain is accepted only when
    ``verify_curve_exact`` passes it; otherwise, or when no valid chain
    forms, the scale halves (up to 1000 times)."""
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if not (0.0 < scale < 1.0):
        raise ValueError("scale must lie in (0, 1)")
    for h in arr.hyperplanes:
        if len(h.normal) != 2:
            raise ValueError("2D construction needs a 2D arrangement")
    s = scale
    for _ in range(_MAX_HALVINGS):
        try:
            curve = _construct(arr, delta, s)
            if verify_curve_exact(curve, arr, delta).passed:
                return curve
        except _RetryScale:
            pass
        s *= 0.5
        if s < _SCALE_FLOOR:
            break
    raise BandsOverlap(
        f"bands still overlap after shrinking scale to {s}")


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True, eq=False)
class Violation:
    sample_index: int
    x: tuple[float, ...]
    nu: tuple[float, ...]
    generator: tuple[float, ...]
    dot: float

    def to_json_dict(self) -> dict:
        return {"sample_index": self.sample_index, "x": list(self.x),
                "nu": list(self.nu), "generator": list(self.generator),
                "dot": self.dot}


@dataclass(frozen=True, eq=False)
class VerificationOutcome:
    passed: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "violations": [v.to_json_dict() for v in self.violations]}


def verify_zero_separating(cert: SurfaceCertificate, arr: Arrangement,
                           delta: float, tol: float = 1e-9) -> VerificationOutcome:
    """Per-sample invariance test: every inclusion-cone generator g at
    log x must satisfy g . nu >= -tol.  Works in any dimension."""
    violations = []
    log_x = np.log([x for x, _ in cert.samples])
    signs = locate_cell(arr, log_x, delta).tolist() if len(log_x) else []
    for i, ((x, nu), row) in enumerate(zip(cert.samples, signs)):
        gens = cell_cone(arr, row, len(x))
        nu_arr = np.array(nu)
        for g in gens:
            d = float(g @ nu_arr)
            if d < -tol:
                violations.append(Violation(i, tuple(x), tuple(nu),
                                            tuple(float(c) for c in g), d))
    return VerificationOutcome(not violations, tuple(violations))


def verify_curve_exact(curve: PolygonalCurve2D, arr: Arrangement,
                       delta: float) -> VerificationOutcome:
    """``verify_zero_separating`` at every point of the curve.  The cone at
    a point is the union over hyperplanes of its side's generators (-n on
    the + side, n on the - side, both in the band), so a segment passes iff
    every side it visits passes.  Along a + t u, n . log x has at most one
    critical point t*, so its extremes over [0, 1] lie at 0, 1 and t*.
    These points visit every side the segment does, but for a band crossed
    from one side to the other, whose generators are those two sides'.
    Violations index these points, segment by segment."""
    normals = arr.normal_matrix().reshape(-1, 2)
    samples = []
    for seg in curve.segments:
        a, u = np.array(seg.start), np.subtract(seg.end, seg.start)
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = -(normals[:, 0] * u[0] * a[1] + normals[:, 1] * u[1] * a[0]) / (
                normals.sum(axis=1) * u[0] * u[1])
        ts = sorted({0.0, 1.0, *(float(t) for t in crit if 0.0 < t < 1.0)})
        samples += [(tuple(map(float, a + t * u)), seg.normal) for t in ts]
    return verify_zero_separating(SurfaceCertificate(tuple(samples), 0.0), arr,
                                  delta)


def curve_to_certificate(curve: PolygonalCurve2D,
                         samples_per_segment: int = 10) -> SurfaceCertificate:
    """Midpoint samples along every segment with the segment's normal."""
    if samples_per_segment < 1:
        raise ValueError("need at least one sample per segment")
    samples = []
    longest = 0.0
    for seg in curve.segments:
        a = np.array(seg.start)
        b = np.array(seg.end)
        longest = max(longest, float(np.linalg.norm(b - a)))
        for j in range(samples_per_segment):
            t = (j + 0.5) / samples_per_segment
            x = a + t * (b - a)
            samples.append((tuple(float(c) for c in x), seg.normal))
    return SurfaceCertificate(tuple(samples), longest / samples_per_segment)


# ---------------------------------------------------------------------------
# trajectory crossing

def signed_distance_to_curve(q, curve: PolygonalCurve2D) -> float:
    """Distance to the curve, negative on the origin side (even-odd test
    against the closed polygon of the curve and the axis segments)."""
    verts = curve.vertices
    (qx, qy), best, inside = q, math.inf, False
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        dx, dy = x2 - x1, y2 - y1
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 == 0.0 else max(0.0, min(1.0, ((qx - x1) * dx + (qy - y1) * dy) / L2))
        best = min(best, math.hypot(qx - (x1 + t * dx), qy - (y1 + t * dy)))
    poly = [*verts, (0.0, verts[-1][1]), (0.0, 0.0), (verts[0][0], 0.0)]
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        if (y1 > qy) != (y2 > qy) and qx < x1 + (qy - y1) / (y2 - y1) * (x2 - x1):
            inside = not inside
    return -best if inside else best


def _min_signed_distance(states: np.ndarray, curve: PolygonalCurve2D) -> float:
    """``min(signed_distance_to_curve(q, curve) for q in states)``, bit for
    bit.  One array pass repeats the scalar arithmetic but for ``np.hypot``,
    which is within 1e-9 of ``math.hypot``; the scalar function decides
    among the states within 1e-9 of the array minimum."""
    verts = curve.vertices
    qx, qy = states[:, :1], states[:, 1:]
    poly = np.array([*verts, (0.0, verts[-1][1]), (0.0, 0.0), (verts[0][0], 0.0)])
    (x1, y1), (x2, y2) = poly.T, np.roll(poly, -1, axis=0).T
    (ax, ay), (dx, dy) = np.array(verts[:-1]).T, np.diff(verts, axis=0).T
    L2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        flips = ((y1 > qy) != (y2 > qy)) & (
            qx < x1 + (qy - y1) / (y2 - y1) * (x2 - x1))
        u = ((qx - ax) * dx + (qy - ay) * dy) / L2
    u = np.where(u < 1.0, u, 1.0)  # max(0, min(1, u)) as Python orders it
    u = np.where((u > 0.0) & (L2 != 0.0), u, 0.0)
    d = np.hypot(qx - (ax + u * dx), qy - (ay + u * dy)).min(axis=1)
    signed = np.where(np.logical_xor.reduce(flips, axis=1), -d, d)
    m = signed.min()
    near = states[signed <= m + (1e-9 * abs(m) + 1e-300)]
    return min(signed_distance_to_curve(tuple(q), curve) for q in near)


@dataclass(frozen=True, eq=False)
class CrossingReport:
    min_signed_distance: float
    per_schedule: tuple[float, ...]
    crossed: bool
    seed: int

    def to_json_dict(self) -> dict:
        return {"min_signed_distance": self.min_signed_distance,
                "per_schedule": list(self.per_schedule),
                "crossed": self.crossed, "seed": self.seed}


def trajectory_crossing_test(curve: PolygonalCurve2D, net: ReactionNetwork,
                             band: RateBand, n_schedules: int, horizon: float,
                             seed: int = 0, switch_period: float | None = None,
                             opts: IntegratorOptions | None = None) -> CrossingReport:
    """Integrate seeded banded-rate trajectories from the far side of the
    curve, all schedules as one batch, and report the smallest signed
    distance ever observed.  Each schedule draws its start, then its rates,
    from one ``default_rng(seed)`` stream."""
    if n_schedules < 1:
        raise ValueError("need at least one schedule")
    rng = np.random.default_rng(seed)
    period = switch_period if switch_period is not None else horizon / 8.0
    base = 100.0 * max(max(v) for v in curve.vertices)
    starts, schedules = [], []
    for _ in range(n_schedules):
        starts.append(base * np.exp(rng.uniform(0.0, math.log(10.0), size=2)))
        schedules.append(RateSchedule.random(len(net.reactions), band, period,
                                             horizon, rng))
    minima = []
    for traj in integrate(net, schedules, np.array(starts), horizon, opts):
        if isinstance(traj, Exception):
            raise traj
        minima.append(_min_signed_distance(traj.states, curve))
    overall = min(minima)
    return CrossingReport(overall, tuple(minima), overall <= 0.0, seed)


# ---------------------------------------------------------------------------
# SVG export

def curve_to_svg(curve: PolygonalCurve2D, arr: Arrangement | None = None) -> str:
    """480 x 480 log-log rendering of the curve; band center lines drawn
    dashed."""
    width = height = 480
    pts = []
    for seg in curve.segments:
        a, b = np.array(seg.start), np.array(seg.end)
        for i in range(17):
            pts.append(np.log(a + (b - a) * (i / 16.0)))
    pts = np.array(pts)
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    span = hi - lo

    def to_px(p):
        x = (p[0] - lo[0]) / span[0] * (width - 20) + 10
        y = height - ((p[1] - lo[1]) / span[1] * (height - 20) + 10)
        return f"{x:.2f},{y:.2f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    if arr is not None:
        for h in arr.hyperplanes:
            n = h.normal
            d = np.array([-n[1], n[0]])
            c = (lo + hi) / 2.0
            c = c - (c @ np.array(n)) * np.array(n)
            r = float(np.linalg.norm(hi - lo))
            a, b = c - r * d, c + r * d
            (x1, y1), (x2, y2) = to_px(a).split(","), to_px(b).split(",")
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         'stroke="#999" stroke-dasharray="4 3"/>')
    path = " ".join(to_px(p) for p in pts)
    parts.append(f'<polyline points="{path}" fill="none" stroke="#c33" '
                 'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)
