"""Zero-separating curves in two species: construction, certificate
verification, signed distances, and trajectory crossing tests.

Junction coordinates are placed by bisection and are frozen only by the
golden digests of the corpus curves; the other assertions target
structural invariants (segment counts, band order, monotonicity,
axis-corridor endpoints, conservation along band segments, and
verification outcomes).
"""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from toric_gac import geometry, surfaces
from toric_gac.corpus import load
from toric_gac.dynamics import IntegratorOptions, RateBand, RateSchedule, integrate
from toric_gac.embedding import build_embedding
from toric_gac.geometry import Arrangement
from toric_gac.network import Complex, Reaction, ReactionNetwork
from toric_gac.surfaces import (
    BandsOverlap,
    CurveSegment,
    PolygonalCurve2D,
    SurfaceCertificate,
    build_zero_separating_curve_2d,
    curve_to_certificate,
    curve_to_svg,
    signed_distance_to_curve,
    trajectory_crossing_test,
    verify_curve_exact,
    verify_zero_separating,
)

DIAG = Arrangement.from_vectors(np.array([[1.0, -1.0]]))
TWO = Arrangement.from_vectors(np.array([[1.0, -1.0], [1.0, -2.0]]))
EMPTY = Arrangement.from_vectors(np.zeros((0, 2)))
MIXED = Arrangement.from_vectors(np.array(
    [[1.0, -1.0], [2.0, -1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def verified(curve, arr, delta, spm=10, tol=1e-9):
    cert = curve_to_certificate(curve, samples_per_segment=spm)
    return verify_zero_separating(cert, arr, delta, tol=tol)


def two_band_net():
    """Two reversible pairs sharing a vertex; reaction vectors (-1, 1)
    and (-2, 1) give two crossing directions."""
    return ReactionNetwork(
        species=("A", "B"),
        complexes=(Complex(0, (1.0, 0.0)), Complex(1, (0.0, 1.0)),
                   Complex(2, (2.0, 0.0))),
        reactions=(Reaction(0, 1, 1.0), Reaction(1, 0, 1.0),
                   Reaction(2, 1, 1.0), Reaction(1, 2, 1.0)),
    )


# -- input validation ---------------------------------------------------


def test_rejects_negative_delta():
    with pytest.raises(ValueError):
        build_zero_separating_curve_2d(DIAG, -0.1)


@pytest.mark.parametrize("scale", [0.0, -1e-3, 1.0, 2.0])
def test_rejects_bad_scale(scale):
    with pytest.raises(ValueError):
        build_zero_separating_curve_2d(DIAG, 0.5, scale=scale)


def test_rejects_non_planar_arrangement():
    arr3 = Arrangement.from_vectors(np.array([[1.0, -1.0, 0.0]]))
    with pytest.raises(ValueError):
        build_zero_separating_curve_2d(arr3, 0.5)


def test_certificate_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        SurfaceCertificate((((1.0, 0.0), (1.0, 0.0)),), 0.1)


def test_certificate_rejects_non_unit_normals():
    with pytest.raises(ValueError):
        SurfaceCertificate((((1.0, 1.0), (1.0, 1.0)),), 0.1)


def test_point_certificate_requires_positive_point():
    # the 1-D surface is one point with outward direction +1
    with pytest.raises(ValueError):
        SurfaceCertificate((((0.0,), (1.0,)),), 0.0)


def test_sampler_requires_positive_count():
    curve = build_zero_separating_curve_2d(DIAG, 0.5)
    with pytest.raises(ValueError):
        curve_to_certificate(curve, samples_per_segment=0)


def test_curve_validates_chaining_and_monotonicity():
    s = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError):
        PolygonalCurve2D((CurveSegment((1e-3, 1e-13), (2e-3, 1.0),
                                       (s, s), None),), 1e-3, 0.5)
    with pytest.raises(ValueError):
        PolygonalCurve2D((
            CurveSegment((1e-3, 1e-13), (5e-4, 5e-4), (s, s), None),
            CurveSegment((4e-4, 6e-4), (1e-13, 1e-3), (s, s), None),
        ), 1e-3, 0.5)


# -- structure of built curves ------------------------------------------


def test_empty_arrangement_gives_single_chord():
    curve = build_zero_separating_curve_2d(EMPTY, 0.5)
    assert len(curve.segments) == 1
    assert curve.segments[0].band_index is None
    assert verified(curve, EMPTY, 0.5).passed


def test_single_band_single_segment():
    delta = 0.7
    curve = build_zero_separating_curve_2d(DIAG, delta)
    assert len(curve.segments) == 1
    seg = curve.segments[0]
    assert seg.band_index == 0
    # travel is along -normal: x1 + x2 is conserved, so the end lands at
    # height equal to the starting abscissa
    a, b = np.array(seg.start), np.array(seg.end)
    assert b[1] == pytest.approx(a[0] + a[1], rel=1e-12)
    # the endpoints hug the axes
    assert a[1] <= 1e-9 * curve.scale
    assert b[0] <= 1e-9 * curve.scale
    # the band is genuinely traversed
    n = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert float(n @ np.log(a)) > delta
    assert float(n @ np.log(b)) < -delta
    assert verified(curve, DIAG, delta).passed


def test_two_bands_three_segments_in_slope_order():
    delta = 0.5
    curve = build_zero_separating_curve_2d(TWO, delta)
    assert [s.band_index for s in curve.segments] == [0, None, 1]
    assert verified(curve, TWO, delta).passed
    # junction vertices sit strictly outside every band
    normals = TWO.normal_matrix()
    for v in curve.vertices[1:-1]:
        assert np.min(np.abs(normals @ np.log(np.array(v)))) > delta


def test_mixed_arrangement_crosses_steeper_band_first():
    curve = build_zero_separating_curve_2d(MIXED, 0.8)
    assert [s.band_index for s in curve.segments] == [1, None, 0]
    assert verified(curve, MIXED, 0.8).passed


def test_zero_delta_builds_and_verifies():
    curve = build_zero_separating_curve_2d(TWO, 0.0)
    assert verified(curve, TWO, 0.0).passed
    assert [s.band_index for s in curve.segments] == [0, None, 1]


def test_vertices_strictly_monotone():
    curve = build_zero_separating_curve_2d(MIXED, 0.8)
    verts = curve.vertices
    for p, q in zip(verts, verts[1:]):
        assert q[0] < p[0] and q[1] > p[1]


def test_band_segments_run_along_their_band_planes():
    curve = build_zero_separating_curve_2d(TWO, 0.5)
    for seg in curve.segments:
        if seg.band_index is None:
            continue
        n = TWO.hyperplanes[seg.band_index].vector
        nu = np.array(seg.normal)
        # travel along -n means the stated normal is orthogonal to n
        assert abs(float(n @ nu)) < 1e-12


def test_scale_ladder_all_verify():
    for s in (1e-2, 1e-3, 1e-4):
        curve = build_zero_separating_curve_2d(TWO, 0.5, scale=s)
        assert curve.scale <= s
        assert verified(curve, TWO, 0.5).passed


def test_overlapping_bands_raise():
    arr = Arrangement.from_vectors(np.array([[1.0, -1.0], [1.0, -1.0000001]]))
    with pytest.raises(BandsOverlap):
        build_zero_separating_curve_2d(arr, 1.0)


def test_later_band_boundaries_stop_the_chain():
    # a seeded random arrangement on which a crossing runs past a later
    # band's boundary and turns the chain back (ValueError from the curve
    # checks); the builder must give a verified curve or BandsOverlap
    arr = Arrangement.from_vectors(np.array([
        [-0.1460409166291835, -0.3565660459813679],
        [-0.3972242751651344, 2.6512562221679703],
        [-1.0081071737304717, 0.7966149830976951],
        [0.1221556020122976, 0.07444391679969858],
        [-0.5293397115656918, -0.0700030880147155],
        [0.2391094047887188, -1.028134361602394]]))
    delta = 0.003674551417483155
    try:
        curve = build_zero_separating_curve_2d(arr, delta)
    except BandsOverlap:
        return
    assert verified(curve, arr, delta).passed


def test_exact_gate_builds_where_the_clearance_proxies_gave_up():
    # seeded arrangement #745 of default_rng(11): no chain stays clear of
    # every foreign band, yet the first chain meets the real condition
    arr = Arrangement.from_vectors(np.array([
        [-0.8775889878150436, 0.4794137758406273],
        [-0.19277817926198643, 0.9812423623144454]]))
    delta = 0.008865047001659786
    curve = build_zero_separating_curve_2d(arr, delta)
    assert curve.scale == 1e-3 and len(curve.segments) == 3
    assert verify_curve_exact(curve, arr, delta).passed


def test_chain_that_turns_back_is_a_retry():
    # seeded arrangement #1193 of default_rng(11): one tentative chain fails
    # the monotonicity check, which must end as BandsOverlap, not ValueError
    arr = Arrangement.from_vectors(np.array([
        [-0.5036551301563937, 0.8639048037064883],
        [-0.31459487459743035, 0.9492260346603579],
        [-0.5351088329969169, 0.8447831300687045]]))
    with pytest.raises(BandsOverlap):
        build_zero_separating_curve_2d(arr, 0.8588313859930964)


def seeded_arrangements(count):
    """The first ``count`` seeded arrangements of default_rng(11): 2-5
    normals at uniform angles and a log-uniform delta in [1e-3, 3]."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        ang = rng.uniform(0.0, np.pi, rng.integers(2, 6))
        delta = float(np.exp(rng.uniform(np.log(1e-3), np.log(3.0))))
        yield Arrangement.from_vectors(
            np.column_stack([np.cos(ang), np.sin(ang)])), delta


def test_seeded_arrangement_outcomes_match_golden_digest():
    # each curve's JSON or each BandsOverlap message, in seed order
    parts, built = [], 0
    for arr, delta in seeded_arrangements(100):
        try:
            curve = build_zero_separating_curve_2d(arr, delta)
        except BandsOverlap as exc:
            parts.append(f"BandsOverlap: {exc}")
            continue
        parts.append(json.dumps(curve.to_json_dict()))
        built += 1
    assert built == 82
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == (
        "3a73bd20cc452934b8aad9e221646a9ba43b61f187b5c34b14837be699c4be14")


def test_second_build_reads_every_connector_polar_from_the_cache(
        monkeypatch):
    calls = []
    polar_cone = geometry.polar_cone
    monkeypatch.setattr(geometry, "_polar_tables", {})
    monkeypatch.setattr(geometry, "polar_cone", lambda *a, **kw: (
        calls.append(a) or polar_cone(*a, **kw)))
    first = build_zero_separating_curve_2d(MIXED, 0.8)
    assert calls
    calls.clear()
    second = build_zero_separating_curve_2d(MIXED, 0.8)
    assert calls == []
    assert second.to_json_dict() == first.to_json_dict()


@pytest.mark.parametrize("arr,delta", [(TWO, 0.5), (MIXED, 0.8)],
                         ids=["TWO", "MIXED"])
def test_connector_polar_is_that_of_the_normals_turned_to_the_probe(
        monkeypatch, arr, delta):
    # each connector locates its probe at delta 0 and reads the cache at
    # the negated sign row; the polar it gets is, bit for bit, the polar of
    # the normals s n with s = copysign(1, n . probe)
    probes, polars = [], []

    def locate_spy(arr_, X, d):
        if d == 0.0:
            probes.append(np.array(X))
        return geometry.locate_cell(arr_, X, d)

    def polars_spy(*args):
        got = geometry.cell_polars(*args)
        polars.append(got[0][0])
        return got
    monkeypatch.setattr(surfaces, "locate_cell", locate_spy)
    monkeypatch.setattr(surfaces, "cell_polars", polars_spy)
    build_zero_separating_curve_2d(arr, delta)
    assert probes and len(probes) == len(polars)
    normals = arr.normal_matrix()
    for probe, got in zip(probes, polars):
        assert np.all(geometry.locate_cell(arr, probe, 0.0) != 0)
        s = np.array([math.copysign(1.0, float(n @ probe)) for n in normals])
        want = geometry.polar_cone(s[:, None] * normals, dim=2)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- randomized construction suite --------------------------------------


def random_arrangement(rng):
    """Arrangement with crossing normals of moderate slope and well
    separated directions; mirrors the reaction-vector geometry the
    embedding produces."""
    while True:
        m = int(rng.integers(1, 5))
        vecs = []
        for _ in range(m):
            if rng.random() < 0.65:
                phi = rng.uniform(math.atan(1.0 / 3.0), math.atan(3.0))
                v = np.array([math.sin(phi), -math.cos(phi)])
            else:
                psi = rng.uniform(0.0, 0.5 * math.pi)
                v = np.array([math.cos(psi), math.sin(psi)])
            vecs.append(v * rng.uniform(0.5, 3.0))
        arr = Arrangement.from_vectors(np.array(vecs))
        angs = sorted(math.atan2(h.vector[1], h.vector[0]) % math.pi
                      for h in arr.hyperplanes)
        if all(b - a >= 0.15 for a, b in zip(angs, angs[1:])):
            return arr


def test_random_arrangements_build_and_verify():
    rng = np.random.default_rng(20240814)
    built = 0
    for _ in range(60):
        arr = random_arrangement(rng)
        delta = float(rng.choice([0.0, 0.3, 1.2, 3.0]))
        curve = build_zero_separating_curve_2d(arr, delta)
        out = verified(curve, arr, delta, spm=7)
        assert out.passed, (arr.normal_matrix(), delta, out.violations[:2])
        assert verify_curve_exact(curve, arr, delta).passed
        built += 1
    assert built == 60


# -- certificate verification -------------------------------------------


def test_certificate_mesh_spacing():
    curve = build_zero_separating_curve_2d(TWO, 0.5)
    cert = curve_to_certificate(curve, samples_per_segment=10)
    longest = max(np.linalg.norm(np.array(s.end) - np.array(s.start))
                  for s in curve.segments)
    assert cert.h == pytest.approx(longest / 10.0, rel=1e-12)
    assert len(cert.samples) == 10 * len(curve.segments)


def test_reversed_band_normal_is_detected():
    delta = 0.5
    curve = build_zero_separating_curve_2d(TWO, delta)
    cert = curve_to_certificate(curve, samples_per_segment=10)
    flipped = []
    reversed_idx = set()
    for i, ((x, nu), seg_id) in enumerate(zip(
            cert.samples,
            [j // 10 for j in range(len(cert.samples))])):
        if curve.segments[seg_id].band_index == 0:
            flipped.append((x, tuple(-c for c in nu)))
            reversed_idx.add(i)
        else:
            flipped.append((x, nu))
    bad = SurfaceCertificate(tuple(flipped), cert.h)
    out = verify_zero_separating(bad, TWO, delta)
    assert not out.passed
    assert {v.sample_index for v in out.violations} == reversed_idx
    assert all(v.dot < -1e-9 for v in out.violations)


def test_tolerance_bounds_violation_detection():
    # reversed normals produce dots around -0.3: a tolerance looser than
    # that swallows them, the default does not
    curve = build_zero_separating_curve_2d(TWO, 0.5)
    cert = curve_to_certificate(curve, samples_per_segment=4)
    flipped = tuple((x, tuple(-c for c in nu)) for x, nu in cert.samples)
    bad = SurfaceCertificate(flipped, cert.h)
    assert not verify_zero_separating(bad, TWO, 0.5).passed
    assert verify_zero_separating(bad, TWO, 0.5, tol=2.0).passed


def test_exact_check_finds_a_band_between_samples():
    # n . log x peaks at the segment's midpoint, just inside the band; the
    # ten midpoint samples all lie on its near side
    s = math.sqrt(0.5)
    arr = Arrangement.from_vectors(np.array([[1.0, 1.0]]))
    curve = PolygonalCurve2D((CurveSegment((0.5, 0.001), (0.001, 0.5), (s, s),
                                           None),), 1e-3, 1.96)
    assert verified(curve, arr, 1.96).passed
    out = verify_curve_exact(curve, arr, 1.96)
    assert not out.passed
    (v,) = out.violations
    assert v.x == pytest.approx((0.2505, 0.2505), rel=1e-12)
    assert v.dot == pytest.approx(-1.0, rel=1e-12)


def random_chain(rng):
    """Monotone chain of one to three segments with log-uniform vertices
    and each segment's own outward normal."""
    k = int(rng.integers(1, 4))
    x1 = np.sort(np.exp(rng.uniform(-8.0, 1.0, k + 1)))[::-1]
    x2 = np.sort(np.exp(rng.uniform(-8.0, 1.0, k + 1)))
    segments = []
    for i in range(k):
        a, b = (float(x1[i]), float(x2[i])), (float(x1[i + 1]), float(x2[i + 1]))
        nu = np.array([b[1] - a[1], a[0] - b[0]])
        nu /= np.linalg.norm(nu)
        segments.append(CurveSegment(a, b, (float(nu[0]), float(nu[1])), None))
    return PolygonalCurve2D(tuple(segments), 1e-3, 0.0)


def test_exact_check_is_never_weaker_than_dense_sampling():
    # oracle: a curve the exact check passes passes 100 samples per
    # segment, and every exact violation fails on its own sample
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(150):
        curve = random_chain(rng)
        angles = rng.uniform(0.0, math.pi, int(rng.integers(1, 3)))
        arr = Arrangement.from_vectors(np.stack([np.cos(angles),
                                                 np.sin(angles)], axis=1))
        delta = float(rng.uniform(0.0, 2.0))
        exact = verify_curve_exact(curve, arr, delta)
        if exact.passed:
            assert verified(curve, arr, delta, spm=100).passed
        for v in exact.violations:
            alone = SurfaceCertificate(((v.x, v.nu),), 0.0)
            assert not verify_zero_separating(alone, arr, delta).passed
        outcomes.add(exact.passed)
    assert outcomes == {True, False}


def test_one_species_point_certificate():
    # a point with outward direction +1: the inclusion below the point
    # forces dx/dt >= 0
    def point(x):
        return SurfaceCertificate((((x,), (1.0,)),), 0.0)

    arr1 = Arrangement.from_vectors(np.array([[1.0]]))
    ok = verify_zero_separating(point(0.01), arr1, 1.0)
    assert ok.passed
    inside = verify_zero_separating(point(float(math.exp(-0.5))), arr1, 1.0)
    assert not inside.passed
    assert len(inside.violations) == 1


# -- signed distance -----------------------------------------------------


def test_signed_distance_signs():
    curve = build_zero_separating_curve_2d(DIAG, 0.7)
    assert signed_distance_to_curve(np.array([1e-6, 1e-6]), curve) < 0
    assert signed_distance_to_curve(np.array([1.0, 1.0]), curve) > 0
    assert signed_distance_to_curve(np.array([curve.scale * 10.0] * 2,),
                                    curve) > 0


def test_signed_distance_magnitude_near_segment():
    curve = build_zero_separating_curve_2d(DIAG, 0.7)
    a, b = np.array(curve.segments[0].start), np.array(curve.segments[0].end)
    mid = 0.5 * (a + b)
    nu = np.array(curve.segments[0].normal)
    step = 1e-5
    outside = mid + step * nu
    inside = mid - step * nu
    assert signed_distance_to_curve(outside, curve) == pytest.approx(step,
                                                                     rel=1e-6)
    assert signed_distance_to_curve(inside, curve) == pytest.approx(-step,
                                                                    rel=1e-6)


def probe_states(verts):
    """States that stress the even-odd test and the clipped projections:
    every vertex, points at each vertex's exact height left and right of
    it, the origin side, beyond both chain ends, and far away."""
    (x0, y0), (xe, ye) = verts[0], verts[-1]
    pts = [(1e-3 * x0, 1e-3 * ye), (0.5 * xe, 0.5 * y0), (3.0 * x0, 0.5 * y0),
           (2.0 * x0, y0), (0.5 * xe, 3.0 * ye), (xe, 2.0 * ye), (1e3, 1e3),
           (5.0 * x0, 1e-300), (1e-300, 5.0 * ye), (x0, 0.5 * y0)]
    for x, y in verts:
        pts += [(x, y), (0.5 * x, y), (2.0 * x, y), (x, 0.999 * y)]
    rng = np.random.default_rng(17)
    lo, hi = math.log(min(xe, y0)) - 2.0, math.log(max(x0, ye)) + 2.0
    pts += [tuple(p) for p in np.exp(rng.uniform(lo, hi, size=(200, 2)))]
    return np.array(pts)


def test_array_distance_minimum_equals_the_scalar_oracle():
    # a two-band curve, a one-segment curve, and a chain with a zero-length
    # segment (a repeated vertex), which no validated curve has
    curves = [build_zero_separating_curve_2d(TWO, 0.3),
              build_zero_separating_curve_2d(EMPTY, 0.3),
              SimpleNamespace(vertices=((1.0, 0.01), (0.5, 0.1), (0.5, 0.1),
                                        (0.01, 1.0)))]
    for curve in curves:
        states = probe_states(curve.vertices)
        scalar = [signed_distance_to_curve(tuple(q), curve) for q in states]
        assert min(scalar) < 0.0 < max(scalar)
        pieces = [states[i:i + 1] for i in range(len(states))]
        pieces += [states, states[::-1], states[10:]]
        for part in pieces:
            want = min(signed_distance_to_curve(tuple(q), curve) for q in part)
            got = surfaces._min_signed_distance(part, curve)
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


# -- trajectory crossing -------------------------------------------------


def test_trajectories_stay_outside_reversible_pair():
    net = load("rev_pair")
    band = RateBand(0.5)
    emb = build_embedding(net, band)
    curve = build_zero_separating_curve_2d(emb.arrangement, emb.delta0)
    rep = trajectory_crossing_test(curve, net, band, n_schedules=50,
                                   horizon=20.0, seed=7)
    assert not rep.crossed
    assert rep.min_signed_distance > 0
    assert len(rep.per_schedule) == 50
    assert all(d > 0 for d in rep.per_schedule)


def test_trajectories_stay_outside_two_band_net():
    net = two_band_net()
    band = RateBand(0.5)
    emb = build_embedding(net, band)
    curve = build_zero_separating_curve_2d(emb.arrangement, emb.delta0)
    assert sum(s.band_index is not None for s in curve.segments) == 2
    assert verified(curve, emb.arrangement, emb.delta0).passed
    rep = trajectory_crossing_test(curve, net, band, n_schedules=25,
                                   horizon=20.0, seed=11)
    assert not rep.crossed and rep.min_signed_distance > 0


def test_crossing_report_is_deterministic():
    net = load("rev_pair")
    band = RateBand(0.5)
    emb = build_embedding(net, band)
    curve = build_zero_separating_curve_2d(emb.arrangement, emb.delta0)
    r1 = trajectory_crossing_test(curve, net, band, 10, 20.0, seed=3)
    r2 = trajectory_crossing_test(curve, net, band, 10, 20.0, seed=3)
    assert r1.to_json_dict() == r2.to_json_dict()
    r3 = trajectory_crossing_test(curve, net, band, 10, 20.0, seed=4)
    assert r3.to_json_dict() != r1.to_json_dict()


def test_crossing_minima_match_a_per_schedule_loop():
    """Oracle for the batched crossing test: draw each start, then its
    schedule, from one ``default_rng(seed)`` stream and integrate every
    schedule on its own."""
    net = load("rev_triangle_skew")
    band = RateBand(0.5)
    opts = IntegratorOptions(rtol=1e-6, atol=1e-9)
    emb = build_embedding(net, band)
    curve = build_zero_separating_curve_2d(emb.arrangement, emb.delta0)
    rep = trajectory_crossing_test(curve, net, band, n_schedules=6,
                                   horizon=20.0, seed=5, opts=opts)
    rng = np.random.default_rng(5)
    base = 100.0 * max(max(v) for v in curve.vertices)
    want = []
    for _ in range(6):
        x0 = base * np.exp(rng.uniform(0.0, math.log(10.0), size=2))
        schedule = RateSchedule.random(len(net.reactions), band, 20.0 / 8.0,
                                       20.0, rng)
        traj = integrate(net, schedule, x0, 20.0, opts)
        want.append(float(min(signed_distance_to_curve(tuple(x), curve)
                              for x in traj.states)))
    assert rep.per_schedule == tuple(want)
    assert rep.min_signed_distance == min(want)


def test_zero_field_net_keeps_constant_distance():
    net = ReactionNetwork(
        species=("A", "B"),
        complexes=(Complex(0, (1.0, 0.0)), Complex(1, (0.0, 1.0))),
        reactions=(),
    )
    band = RateBand(0.5)
    emb = build_embedding(net, band)
    curve = build_zero_separating_curve_2d(emb.arrangement, emb.delta0)
    rep = trajectory_crossing_test(curve, net, band, n_schedules=5,
                                   horizon=5.0, seed=9)
    assert not rep.crossed
    # the field vanishes, so each minimum equals the start distance and
    # reruns reproduce it exactly
    rep2 = trajectory_crossing_test(curve, net, band, n_schedules=5,
                                    horizon=5.0, seed=9)
    assert rep.per_schedule == rep2.per_schedule


def test_trajectory_requires_positive_schedule_count():
    net = load("rev_pair")
    band = RateBand(0.5)
    emb = build_embedding(net, band)
    curve = build_zero_separating_curve_2d(emb.arrangement, emb.delta0)
    with pytest.raises(ValueError):
        trajectory_crossing_test(curve, net, band, 0, 20.0)


# -- serialization and rendering ----------------------------------------


def test_curve_json_round_trip_is_stable():
    curve = build_zero_separating_curve_2d(TWO, 0.5)
    assert curve.to_json_dict() == curve.to_json_dict()
    d = curve.to_json_dict()
    assert d["delta"] == 0.5
    assert [s["band_index"] for s in d["segments"]] == [0, None, 1]


# sha256 of the newline-joined JSON of one network's curves over
# CORPUS_EPSILONS; three triangles share one arrangement, and so do
# rev_pair and powerlaw_pair
CORPUS_EPSILONS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
GOLDEN_CURVE_DIGESTS = {
    "rev_pair": "5ef3d30faf7974c23a6eb3a8e8564435e9487e89d33339710ab1c7d004f5c5bd",
    "triangle": "f6ff9950e499dcac6d3c8644ac0943c50cce55fa7e6b37800f36d194de4bc63f",
    "rev_triangle_db": "f6ff9950e499dcac6d3c8644ac0943c50cce55fa7e6b37800f36d194de4bc63f",
    "rev_triangle_skew": "f6ff9950e499dcac6d3c8644ac0943c50cce55fa7e6b37800f36d194de4bc63f",
    "two_triangles_vertex": "10ee17732978af72c997ab15e7044438a98b0e46c38770b9444e907e239a84a0",
    "two_triangles_edge": "72542dab908ecd327530b6da427b58f174d139409855124ba275b12d8abd2b21",
    "square": "906b5a4f6bed1cff22a893d62bd3cb0e624d7d3cf67e823f17f138253c1d89c3",
    "powerlaw_pair": "5ef3d30faf7974c23a6eb3a8e8564435e9487e89d33339710ab1c7d004f5c5bd",
}


@pytest.mark.parametrize("name", GOLDEN_CURVE_DIGESTS)
def test_corpus_curves_match_golden_digests(name):
    net = load(name)
    parts = []
    for eps in CORPUS_EPSILONS:
        emb = build_embedding(net, RateBand(eps))
        curve = build_zero_separating_curve_2d(emb.arrangement, emb.delta0)
        parts.append(json.dumps(curve.to_json_dict()))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == GOLDEN_CURVE_DIGESTS[name]


def test_svg_render_smoke():
    curve = build_zero_separating_curve_2d(TWO, 0.5)
    svg = curve_to_svg(curve, TWO)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
