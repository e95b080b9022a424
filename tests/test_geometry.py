"""Cone and arrangement tests.

The fan/arrangement agreement test rebuilds each arrangement's face fan
from scratch (every realizable sign vector, converted to generators by the
double-description routine) and compares the two inclusion-cone routes by
mutual generator containment.
"""

import itertools

import numpy as np
import pytest

from toric_gac.geometry import (
    Arrangement,
    DimensionTooLarge,
    Hyperplane,
    cone_contains,
    cone_membership,
    fan_inclusion_cone,
    inclusion_cone,
    locate_cell,
    point_to_cone_distance,
    polar_cone,
)


def cones_equal(a, b, tol=1e-8):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return all(cone_contains(b, g, tol) for g in a) and all(
        cone_contains(a, g, tol) for g in b
    )


def face_fan(arr: Arrangement, dim: int):
    """All sign-vector cones of the arrangement, as generator arrays."""
    normals = arr.normal_matrix()
    fan = []
    for sigma in itertools.product((-1, 0, 1), repeat=len(arr)):
        rows = []
        for s, nrm in zip(sigma, normals):
            if s == 0:
                rows.append(nrm)
                rows.append(-nrm)
            else:
                rows.append(-s * nrm)
        fan.append(polar_cone(np.array(rows), dim=dim))
    return fan


# ---------------------------------------------------------------------------
# hyperplanes and arrangements


def test_hyperplane_canonical_orientation():
    h = Hyperplane.from_vector((-2.0, 2.0))
    assert np.allclose(h.vector, np.array([1.0, -1.0]) / np.sqrt(2))
    with pytest.raises(ValueError):
        Hyperplane.from_vector((0.0, 0.0))
    with pytest.raises(ValueError):
        Hyperplane((0.5, 0.5))  # not unit length


def test_arrangement_dedup_up_to_sign():
    arr = Arrangement.from_vectors([(1, 0), (-3, 0), (0, 2), (0, -1), (1, 1)])
    assert len(arr) == 3


# ---------------------------------------------------------------------------
# polar cones


def test_polar_of_positive_quadrant():
    polar = polar_cone(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert cones_equal(polar, np.array([[-1.0, 0.0], [0.0, -1.0]]))


def test_polar_of_zero_cone_is_everything():
    polar = polar_cone(np.zeros((0, 2)), dim=2)
    assert cones_equal(polar, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]))


def test_polar_of_everything_is_zero_cone():
    gens = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    assert polar_cone(gens).shape[0] == 0


def test_polar_of_halfplane():
    # cone{(1,0),(-1,0),(0,1)} = upper half-plane; polar = ray(0,-1)
    polar = polar_cone(np.array([[1.0, 0], [-1, 0], [0, 1]]))
    assert cones_equal(polar, np.array([[0.0, -1.0]]))


def test_polar_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        polar_cone(np.eye(7))


def test_polar_biduality_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        gens = rng.normal(size=(k, 3)).round(2)
        gens = gens[np.linalg.norm(gens, axis=1) > 0.1]
        if gens.shape[0] == 0:
            continue
        double = polar_cone(polar_cone(gens), dim=3)
        assert cones_equal(double, gens), gens


# ---------------------------------------------------------------------------
# membership, certificates, distances


def test_membership_accepts_with_coefficients():
    gens = np.array([[1.0, 0.0], [1.0, 1.0]])
    res = cone_membership(gens, np.array([3.0, 1.0]))
    assert res.contained
    recon = gens.T @ res.coefficients
    assert np.allclose(recon, [3.0, 1.0], atol=1e-9)


def test_membership_rejects_with_farkas_witness():
    gens = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = cone_membership(gens, np.array([-1.0, 1.0]))
    assert not res.contained
    w = res.witness
    assert np.all(gens @ w <= 1e-12)
    assert w @ np.array([-1.0, 1.0]) > 0


def test_membership_zero_cone():
    assert cone_contains(np.zeros((0, 3)), np.zeros(3))
    res = cone_membership(np.zeros((0, 3)), np.array([0.0, 1.0, 0.0]))
    assert not res.contained and res.witness is not None


def test_farkas_certificates_on_random_rejections():
    rng = np.random.default_rng(2718)
    rejections = 0
    while rejections < 100:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        gens = rng.normal(size=(k, n))
        v = rng.normal(size=n) * rng.uniform(0.1, 10)
        res = cone_membership(gens, v)
        if res.contained:
            recon = gens.T @ res.coefficients
            assert np.linalg.norm(recon - v) <= 1e-9 * max(1, np.linalg.norm(v))
            continue
        rejections += 1
        w = res.witness
        scale = np.linalg.norm(w) * np.max(np.abs(gens))
        assert np.all(gens @ w <= 1e-10 * max(1.0, scale))
        assert w @ v > 0


def test_point_to_cone_distance_examples():
    ray = np.array([[1.0, 0.0]])
    assert point_to_cone_distance(ray, np.array([-3.0, 4.0])) == pytest.approx(5.0)
    assert point_to_cone_distance(ray, np.array([7.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert point_to_cone_distance(np.zeros((0, 2)), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_point_to_cone_distance_against_grid_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        gens = rng.normal(size=(2, 2))
        norms = np.linalg.norm(gens, axis=1)
        units = gens / norms[:, None]
        if min(norms) < 0.2 or abs(units[0] @ units[1]) > 0.85:
            continue  # keep the coefficient grid well conditioned
        x = rng.normal(size=2) * 3
        d = point_to_cone_distance(gens, x)
        # dense grid over nonnegative combinations, range wide enough to
        # reach any minimizer for the filtered geometry
        top = 8.0 * max(1.0, np.linalg.norm(x)) / min(norms)
        ts = np.linspace(0.0, top, 241)
        best = np.inf
        for a in ts:
            pts = a * gens[0][None, :] + ts[:, None] * gens[1][None, :]
            best = min(best, float(np.min(np.linalg.norm(pts - x, axis=1))))
        slack = (norms[0] + norms[1]) * top / 240 + 1e-9
        assert d <= best + 1e-9
        assert d >= best - slack
        checked += 1


# ---------------------------------------------------------------------------
# cells and inclusion cones


def test_locate_cell_signs_and_strictness():
    arr = Arrangement.from_vectors([(1, 0), (0, 1)])
    assert locate_cell(arr, np.array([3.0, -2.0]), 1.0).dtype == np.int8
    assert locate_cell(arr, np.array([3.0, -2.0]), 1.0).tolist() == [1, -1]
    assert locate_cell(arr, np.array([0.5, -2.0]), 1.0).tolist() == [0, -1]
    # delta = 0: a point exactly on a hyperplane still reads 0
    assert locate_cell(arr, np.array([0.0, 5.0]), 0.0).tolist() == [0, 1]
    # |n.X| == delta is outside the band (strict inequality)
    assert locate_cell(arr, np.array([1.0, 5.0]), 1.0).tolist() == [1, 1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_locate_cell_batch_rows_match_single_points(dim):
    # the axis normals put points at n.X = +-delta exactly, on the strict
    # band edge, next to points just inside it and at 0
    rng = np.random.default_rng(dim)
    arr = Arrangement.from_vectors(np.vstack([
        np.eye(dim), rng.normal(size=(4, dim))]))
    delta = 0.75
    X = np.vstack([rng.choice([-delta, delta, np.nextafter(delta, 0.0), 0.0],
                              size=(40, dim)),
                   rng.uniform(-3.0, 3.0, size=(200, dim))])
    batch = locate_cell(arr, X, delta)
    assert batch.dtype == np.int8 and batch.shape == (len(X), len(arr))
    for x, row in zip(X, batch):
        assert np.array_equal(locate_cell(arr, x, delta), row)
    edge = np.abs(X[:, :dim]) == delta
    assert edge.any() and np.all(batch[:, :dim][edge] != 0)
    inside = np.abs(X[:, :dim]) < delta
    assert np.all(batch[:, :dim][inside] == 0)


def test_inclusion_cone_off_band_is_cell_polar():
    arr = Arrangement.from_vectors([(1, 0), (0, 1)])
    got = inclusion_cone(arr, 1.0, np.array([3.0, 3.0]))
    # polar of the located (+,+) cell
    expected = polar_cone(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert cones_equal(got, expected)


def test_inclusion_cone_inside_band_gets_both_signs():
    arr = Arrangement.from_vectors([(1, 0)])
    got = inclusion_cone(arr, 1.0, np.array([0.25, 9.0]))
    assert cones_equal(got, np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_fan_inclusion_cone_single_full_cone():
    full = np.concatenate([np.eye(2), -np.eye(2)], axis=0)
    got = fan_inclusion_cone([full], 0.5, np.array([4.0, 1.0]))
    assert got.shape[0] == 0  # polar of R^2 is the zero cone


def test_fan_and_arrangement_inclusion_cones_agree():
    rng = np.random.default_rng(31415)
    probes = 0
    arrangements = 0
    while probes < 500:
        dim = 2 if arrangements % 2 == 0 else 3
        k = int(rng.integers(1, 4))
        arr = Arrangement.from_vectors(rng.normal(size=(k, dim)))
        fan = face_fan(arr, dim)
        arrangements += 1
        for _ in range(50):
            X = rng.normal(size=dim) * rng.uniform(0.2, 5)
            delta = float(rng.uniform(0.05, 2.0))
            a = inclusion_cone(arr, delta, X)
            b = fan_inclusion_cone(fan, delta, X)
            assert cones_equal(a, b, tol=1e-7), (arr, X, delta)
            probes += 1


def test_inclusion_cone_monotone_in_delta():
    rng = np.random.default_rng(6174)
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        arr = Arrangement.from_vectors(rng.normal(size=(k, dim)))
        X = rng.normal(size=dim) * 2
        d1, d2 = sorted(rng.uniform(0.01, 3.0, size=2))
        small = inclusion_cone(arr, float(d1), X)
        big = inclusion_cone(arr, float(d2), X)
        for g in small:
            assert cone_contains(big, g, tol=1e-9)
