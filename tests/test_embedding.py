"""Embedding certificates: band widths, orderings, regrouped coefficients,
pointwise and sampled verification, and negative controls.

Key frozen values: delta_for_edge(0.1, (1,0), (0,1)) = 2 ln 10 / sqrt(2);
the triangle arrangement has normals parallel to (1,-1), (1,0), (0,1); the
triangle cycle at x = (4,2) with unit rates regroups to Phi = (3, 1).
"""

import math

import numpy as np
import pytest

from toric_gac.corpus import EMBEDDING_CORPUS, load
from toric_gac.dynamics import RateBand, RateSchedule, mass_action_field
from toric_gac.embedding import (
    CoincidentVertices,
    CycleOrdering,
    EmbeddingCertificate,
    OrderingMismatch,
    TieOnProjection,
    build_embedding,
    cycle_ordering,
    delta_for_edge,
    ordered_basis,
    phi_coefficients,
    sample_verify_embedding,
    verify_embedding_at,
)
from toric_gac.network import NotWeaklyReversible, cycle_cover, parse_network


def edge_rate_map(net):
    return {(r.source, r.target): r.rate for r in net.reactions}


def cycle_split_rates(net, cover, cyc):
    """Per-edge rates of one covering cycle after equal splitting."""
    rates = edge_rate_map(net)
    r = len(cyc)
    return [rates[(cyc[i], cyc[(i + 1) % r])] /
            cover.multiplicity[(cyc[i], cyc[(i + 1) % r])] for i in range(r)]


# ---------------------------------------------------------------------------
# band half-width

def test_delta_examples():
    got = delta_for_edge(0.1, (1.0, 0.0), (0.0, 1.0))
    assert abs(got - 2.0 * math.log(10.0) / math.sqrt(2.0)) <= 1e-12
    assert abs(got - 3.2563) <= 1e-4
    assert delta_for_edge(1.0, (1.0, 0.0), (0.0, 1.0)) == 0.0
    with pytest.raises(CoincidentVertices):
        delta_for_edge(0.5, (1.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        delta_for_edge(0.0, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        delta_for_edge(1.5, (0.0,), (1.0,))


# ---------------------------------------------------------------------------
# certificate construction

def test_triangle_arrangement_normals():
    cert = build_embedding(load("triangle"), RateBand(0.1))
    got = {tuple(np.round(h.normal, 12)) for h in cert.arrangement.hyperplanes}
    s = 1.0 / math.sqrt(2.0)
    want = {(round(s, 12), round(-s, 12)), (1.0, 0.0), (0.0, 1.0)}
    assert got == want
    assert abs(cert.delta0 - 2.0 * math.log(10.0)) <= 1e-12


def test_single_reversible_edge():
    cert = build_embedding(load("rev_pair"), RateBand(0.1))
    assert len(cert.arrangement) == 1
    assert len(cert.cover.cycles) == 1
    assert abs(cert.delta0
               - delta_for_edge(0.1, (1.0, 0.0), (0.0, 1.0))) <= 1e-12
    assert cert.epsilon_split == (0.1,)


def test_disjoint_cycles_union_arrangement():
    cert = build_embedding(load("two_pairs_4sp"), RateBand(0.5))
    assert len(cert.arrangement) == 2
    assert len(cert.cover.cycles) == 2


def test_shared_edge_splits_band():
    net = load("two_triangles_edge")
    cert = build_embedding(net, RateBand(0.4))
    assert max(cert.cover.multiplicity.values()) == 2
    assert cert.epsilon_split == (0.2,) * len(cert.cover.cycles)
    # delta0 recomputed from the split band over all in-cycle pairs
    ymat = net.kinetics.Y
    want = 0.0
    for cyc in cert.cover.cycles:
        for a in range(len(cyc)):
            for b in range(a + 1, len(cyc)):
                want = max(want, delta_for_edge(0.2, ymat[cyc[a]], ymat[cyc[b]]))
    assert abs(cert.delta0 - want) <= 1e-12


def test_build_requires_weak_reversibility():
    with pytest.raises(NotWeaklyReversible):
        build_embedding(parse_network("""
            species A B
            A -> B ; k=1
        """), RateBand(0.5))


def test_certificate_json_shape():
    cert = build_embedding(load("triangle"), RateBand(0.1))
    d = cert.to_json_dict()
    assert set(d) == {"normals", "delta0", "cycles", "multiplicities",
                      "epsilon_split"}
    assert len(d["normals"]) == 3
    assert d["delta0"] > 0


# ---------------------------------------------------------------------------
# ordering and regrouped coefficients

def test_ordering_example():
    net = load("triangle")
    ordering = cycle_ordering((0, 1, 2), net.kinetics.Y, (-1.0, -2.0))
    # projections: (1,0) -> -1, (0,1) -> -2, (0,0) -> 0
    assert ordering.order == (2, 0, 1)


def test_ordering_two_vertices():
    net = load("rev_pair")
    ordering = cycle_ordering((0, 1), net.kinetics.Y, (1.0, -1.0))
    assert ordering.order == (0, 1)
    flipped = cycle_ordering((0, 1), net.kinetics.Y, (-1.0, 1.0))
    assert flipped.order == (1, 0)


def test_ordering_tie_raises():
    net = load("rev_pair")
    with pytest.raises(TieOnProjection):
        cycle_ordering((0, 1), net.kinetics.Y, (1.0, 1.0))


def test_phi_two_cycle():
    net = load("rev_pair")
    ordering = cycle_ordering((0, 1), net.kinetics.Y, (1.0, -1.0))
    x = np.array([5.0, 2.0])
    phi = phi_coefficients(net, (0, 1), [2.0, 3.0], x, ordering)
    assert phi.shape == (1,)
    assert abs(phi[0] - (2.0 * 5.0 - 3.0 * 2.0)) <= 1e-12


def test_phi_triangle_frozen_value():
    net = load("triangle")
    x = np.array([4.0, 2.0])
    ordering = cycle_ordering((0, 1, 2), net.kinetics.Y, np.log(x))
    assert ordering.order == (0, 1, 2)
    phi = phi_coefficients(net, (0, 1, 2), [1.0, 1.0, 1.0], x, ordering)
    assert np.allclose(phi, [3.0, 1.0], atol=1e-12)
    assert np.all(phi > 0.0)
    # reconstruction: sum of phi_l (v_{l+1} - v_l) is the cycle field
    recon = phi @ ordered_basis(net, ordering)
    assert np.allclose(recon, [-3.0, 2.0], atol=1e-12)


def test_phi_reconstruction_random():
    rng = np.random.default_rng(17)
    for name in EMBEDDING_CORPUS:
        net = load(name)
        cover = cycle_cover(net)
        for cyc in cover.cycles:
            rates = list(np.exp(rng.uniform(-1.0, 1.0, size=len(cyc))))
            for _ in range(5):
                x = np.exp(rng.uniform(-2.0, 2.0, size=net.n))
                w = rng.normal(size=net.n)
                try:
                    ordering = cycle_ordering(cyc, net.kinetics.Y, w)
                except TieOnProjection:
                    continue
                phi = phi_coefficients(net, cyc, rates, x, ordering)
                recon = phi @ ordered_basis(net, ordering)
                want = np.zeros(net.n)
                ymat = net.kinetics.Y
                for i in range(len(cyc)):
                    u, v = cyc[i], cyc[(i + 1) % len(cyc)]
                    want += rates[i] * float(np.prod(x ** ymat[u])) * (ymat[v] - ymat[u])
                scale = max(1.0, float(np.linalg.norm(want)))
                assert np.linalg.norm(recon - want) <= 1e-12 * scale


def test_phi_ordering_mismatch():
    net = load("triangle")
    ordering = CycleOrdering((0, 1), (1.0, 0.0))
    with pytest.raises(OrderingMismatch):
        phi_coefficients(net, (0, 1, 2), [1.0, 1.0, 1.0], [1.0, 1.0], ordering)


# ---------------------------------------------------------------------------
# pointwise verification

def test_verify_at_ones_inside_all_bands():
    net = load("triangle")
    cert = build_embedding(net, RateBand(0.5))
    sched = RateSchedule.constant([1.0, 1.0, 1.0], RateBand(0.5))
    res = verify_embedding_at(cert, net, sched, 0.0, [1.0, 1.0])
    assert res.contained and res.coefficients is not None


def test_verify_triangle_far_corner_with_lambda():
    net = load("triangle")
    cert = build_embedding(net, RateBand(0.5))
    sched = RateSchedule.constant([1.0, 1.0, 1.0], RateBand(0.5))
    x = np.array([100.0, 0.01])
    res = verify_embedding_at(cert, net, sched, 0.0, x)
    assert res.contained
    lam = res.coefficients
    assert lam is not None and np.all(lam >= 0.0)
    # the accepted combination reconstructs the field value
    from toric_gac.geometry import inclusion_cone
    gens = inclusion_cone(cert.arrangement, cert.delta0, np.log(x))
    v = mass_action_field(net, [1.0, 1.0, 1.0], x)
    assert np.linalg.norm(gens.T @ lam - v) <= 1e-9 * max(1.0, np.linalg.norm(v))


def test_dominance_chain_outside_bands():
    # outside every band the ordered per-cycle fluxes strictly decrease
    # and all regrouped coefficients are positive
    rng = np.random.default_rng(29)
    eps = 0.1
    band = RateBand(eps)
    checked = 0
    for name in EMBEDDING_CORPUS:
        net = load(name)
        cert = build_embedding(net, band)
        normals = cert.arrangement.normal_matrix()
        ymat = net.kinetics.Y
        eps_i = cert.epsilon_split[0]
        tries = 0
        while checked < 500 and tries < 400:
            tries += 1
            log_x = rng.uniform(-8.0, 8.0, size=net.n)
            if np.min(np.abs(normals @ log_x)) < cert.delta0:
                continue  # inside some band: the chain is not claimed there
            x = np.exp(log_x)
            for cyc in cert.cover.cycles:
                rates = np.exp(rng.uniform(math.log(eps_i),
                                           math.log(1.0 / eps_i),
                                           size=len(cyc)))
                ordering = cycle_ordering(cyc, ymat, log_x)
                pos = {v: i for i, v in enumerate(ordering.order)}
                fluxes = np.empty(len(cyc))
                for i in range(len(cyc)):
                    u = cyc[i]
                    fluxes[pos[u]] = rates[i] * float(np.prod(x ** ymat[u]))
                assert np.all(np.diff(fluxes) < 0.0), (name, log_x)
                phi = phi_coefficients(net, cyc, rates, x, ordering)
                assert np.all(phi > 0.0), (name, log_x)
                checked += 1
    assert checked >= 500


def test_verify_monotone_in_delta():
    net = load("triangle")
    band = RateBand(0.5)
    cert = build_embedding(net, band)
    rng = np.random.default_rng(41)
    deltas = [cert.delta0 * 0.25, cert.delta0, cert.delta0 * 4.0]
    for _ in range(200):
        x = np.exp(rng.uniform(-6.0, 6.0, size=2))
        rates = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=3))
        sched = RateSchedule.constant(rates, band)
        flags = []
        for d in deltas:
            c = EmbeddingCertificate(cert.arrangement, d, cert.cover,
                                     cert.epsilon_split)
            flags.append(verify_embedding_at(c, net, sched, 0.0, x).contained)
        for a, b in zip(flags, flags[1:]):
            assert (not a) or b  # pass at smaller delta implies pass at larger


# ---------------------------------------------------------------------------
# sampled verification

def test_sample_triangle_all_pass():
    net = load("triangle")
    band = RateBand(0.1)
    cert = build_embedding(net, band)
    report = sample_verify_embedding(cert, net, band, trials=1000,
                                     box=(-8.0, 8.0), seed=123)
    assert report.all_passed
    assert report.passes == report.trials == 1000
    assert report.failures == ()


def test_sample_deterministic():
    net = load("rev_pair")
    band = RateBand(0.5)
    cert = build_embedding(net, band)
    a = sample_verify_embedding(cert, net, band, trials=50, seed=9)
    b = sample_verify_embedding(cert, net, band, trials=50, seed=9)
    assert a.to_json_dict() == b.to_json_dict()
    single = sample_verify_embedding(cert, net, band, trials=1, seed=9)
    assert single.trials == 1


def test_sample_refuses_non_weakly_reversible():
    bad = parse_network("""
        species A B
        A -> B ; k=1
    """)
    good = load("rev_pair")
    band = RateBand(0.5)
    cert = build_embedding(good, band)
    with pytest.raises(NotWeaklyReversible):
        sample_verify_embedding(cert, bad, band, trials=1)
    with pytest.raises(ValueError):
        sample_verify_embedding(cert, good, band, trials=0)


def test_sample_smoke_across_corpus():
    band = RateBand(0.5)
    for name in ("rev_triangle_skew", "pair_3sp", "powerlaw_pair"):
        net = load(name)
        cert = build_embedding(net, band)
        report = sample_verify_embedding(cert, net, band, trials=200,
                                         seed=2024)
        assert report.all_passed, (name, report.failures[:1])


# ---------------------------------------------------------------------------
# negative control

def test_halved_delta0_is_detected():
    # X in the stripped band shell with extreme rates pushes the field out
    # of the narrowed cone; the verifier must fail with a Farkas witness
    net = load("rev_pair")
    band = RateBand(0.1)
    cert = build_embedding(net, band)
    bad = EmbeddingCertificate(cert.arrangement, cert.delta0 / 2.0,
                               cert.cover, cert.epsilon_split)
    n = np.array([1.0, -1.0]) / math.sqrt(2.0)
    s = 0.75 * cert.delta0  # between delta0/2 and delta0
    x = np.exp(s * n)
    rates = [band.lo, band.hi]  # k1 x1 << k2 x2
    sched = RateSchedule.constant(rates, band)
    res_bad = verify_embedding_at(bad, net, sched, 0.0, x)
    assert not res_bad.contained
    assert res_bad.witness is not None
    gens = np.atleast_2d([-n])  # the narrowed cone's only generator
    w = res_bad.witness
    v = mass_action_field(net, rates, x)
    assert np.all(gens @ w <= 1e-9)
    assert float(w @ v) > 0.0
    # the honest certificate still accepts the same probe
    res_ok = verify_embedding_at(cert, net, sched, 0.0, x)
    assert res_ok.contained
