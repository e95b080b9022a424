"""Embedding certificates: band widths, pointwise and every-rate sampled
verification, negative controls, and the paper's dominance chain checked
with a test-local ordering and regrouping oracle.

Key frozen values: delta_for_edge(0.1, (1,0), (0,1)) = 2 ln 10 / sqrt(2);
the triangle arrangement has normals parallel to (1,-1), (1,0), (0,1); the
triangle cycle at x = (4,2) with unit rates regroups to Phi = (3, 1).
"""

import itertools
import math

import numpy as np
import pytest

from toric_gac import embedding
from toric_gac.corpus import EMBEDDING_CORPUS, load
from toric_gac.dynamics import RateBand, RateSchedule, mass_action_field
from toric_gac.embedding import (
    CoincidentVertices,
    EmbeddingCertificate,
    build_embedding,
    delta_for_edge,
    sample_verify_embedding,
    verify_embedding_at,
)
from toric_gac.geometry import (
    cell_cone,
    cone_membership,
    inclusion_cone,
    polar_cone,
)
from toric_gac.network import NotWeaklyReversible, cycle_cover, parse_network


def ordered_by_projection(cycle, ymat, w):
    """The cycle's vertices by strictly decreasing w-projection of their
    exponent vectors."""
    proj = {v: float(np.dot(w, ymat[v])) for v in cycle}
    order = sorted(cycle, key=lambda v: proj[v], reverse=True)
    assert all(proj[a] > proj[b] for a, b in zip(order, order[1:]))
    return order


def regrouped(ymat, cycle, rates, x, order):
    """Coefficients Phi of the cycle field on the basis v_{l+1} - v_l of
    the ordered vertices: edge v_m -> v_n adds its flux to the coefficients
    between positions m and n, positively when m < n.  Edge i runs
    cycle[i] -> cycle[i + 1] with rate rates[i]."""
    pos = {v: i for i, v in enumerate(order)}
    phi = np.zeros(len(cycle) - 1)
    for i, u in enumerate(cycle):
        flux = float(rates[i]) * float(np.prod(x ** ymat[u]))
        m, n = pos[u], pos[cycle[(i + 1) % len(cycle)]]
        if m < n:
            phi[m:n] += flux
        else:
            phi[n:m] -= flux
    return phi


def difference_basis(ymat, order):
    return np.array([ymat[b] - ymat[a] for a, b in zip(order, order[1:])])


def per_trial_states(n, trials, seed, n_edges, box=(-8.0, 8.0)):
    """The log states of a per-trial loop: one ``rng.uniform`` draw over
    the box, then one uniform per edge for its log rate."""
    rng = np.random.default_rng(seed)
    lo, hi = np.full(n, box[0]), np.full(n, box[1])
    states = []
    for _ in range(trials):
        states.append(rng.uniform(lo, hi))
        rng.uniform(-1.0, 1.0, size=n_edges)
    return states


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
# the test-local regrouping oracle against the package's field

def test_phi_two_cycle():
    net = load("rev_pair")
    order = ordered_by_projection((0, 1), net.kinetics.Y, (1.0, -1.0))
    assert order == [0, 1]
    phi = regrouped(net.kinetics.Y, (0, 1), [2.0, 3.0], np.array([5.0, 2.0]),
                    order)
    assert phi.shape == (1,)
    assert abs(phi[0] - (2.0 * 5.0 - 3.0 * 2.0)) <= 1e-12


def test_phi_triangle_frozen_value():
    net = load("triangle")
    ymat = net.kinetics.Y
    x = np.array([4.0, 2.0])
    order = ordered_by_projection((0, 1, 2), ymat, np.log(x))
    assert order == [0, 1, 2]
    phi = regrouped(ymat, (0, 1, 2), [1.0, 1.0, 1.0], x, order)
    assert np.allclose(phi, [3.0, 1.0], atol=1e-12)
    recon = phi @ difference_basis(ymat, order)
    assert np.allclose(recon, mass_action_field(net, [1.0, 1.0, 1.0], x),
                       atol=1e-12)
    assert np.allclose(recon, [-3.0, 2.0], atol=1e-12)


def test_phi_reconstruction_random():
    # on single-cycle networks the regrouped coefficients rebuild the field
    rng = np.random.default_rng(17)
    checked = 0
    for name in EMBEDDING_CORPUS:
        net = load(name)
        cover = cycle_cover(net)
        if len(cover.cycles) != 1 or len(cover.cycles[0]) != len(net.reactions):
            continue
        cyc = cover.cycles[0]
        edge = {(r.source, r.target): i for i, r in enumerate(net.reactions)}
        for _ in range(5):
            rates = np.exp(rng.uniform(-1.0, 1.0, size=len(cyc)))
            k = np.empty(len(cyc))
            for i, u in enumerate(cyc):
                k[edge[(u, cyc[(i + 1) % len(cyc)])]] = rates[i]
            x = np.exp(rng.uniform(-2.0, 2.0, size=net.n))
            order = ordered_by_projection(cyc, net.kinetics.Y,
                                          rng.normal(size=net.n))
            phi = regrouped(net.kinetics.Y, cyc, rates, x, order)
            recon = phi @ difference_basis(net.kinetics.Y, order)
            want = mass_action_field(net, k, x)
            assert np.linalg.norm(recon - want) <= 1e-12 * max(
                1.0, float(np.linalg.norm(want)))
            checked += 1
    assert checked >= 15


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
                order = ordered_by_projection(cyc, ymat, log_x)
                pos = {v: i for i, v in enumerate(order)}
                fluxes = np.empty(len(cyc))
                for i, u in enumerate(cyc):
                    fluxes[pos[u]] = rates[i] * float(np.prod(x ** ymat[u]))
                assert np.all(np.diff(fluxes) < 0.0), (name, log_x)
                phi = regrouped(ymat, cyc, rates, x, order)
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


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_every_rate_pass_holds_at_all_corners(eps):
    # the field's image of the rate box is the convex hull of its corner
    # images, so a state that passes for every rate must be NNLS-contained
    # at each of the 2^E corners
    band = RateBand(eps)
    trials = 200
    for name in EMBEDDING_CORPUS:
        net = load(name)
        n_edges = len(net.reactions)
        assert n_edges <= 6
        cert = build_embedding(net, band)
        report = sample_verify_embedding(cert, net, band, trials, seed=31)
        failed = {f.trial for f in report.failures}
        corners = np.array(list(itertools.product((band.lo, band.hi),
                                                  repeat=n_edges)))
        states = per_trial_states(net.n, trials, 31, n_edges)
        for t, log_x in enumerate(states):
            if t in failed:
                continue
            x = np.exp(log_x)
            gens = inclusion_cone(cert.arrangement, cert.delta0, log_x)
            fields = mass_action_field(net, corners,
                                       np.tile(x, (len(corners), 1)))
            for k, v in zip(corners, fields):
                assert cone_membership(gens, v).contained, (name, t, k)


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


def test_halved_delta0_every_rate_failures_replay():
    # every-rate check on the halved triangle certificate: each failure's
    # worst corner replays as not contained through the NNLS oracle, its
    # witness separates that corner's field, and its state is the one a
    # per-trial uniform loop draws at that index
    net = load("triangle")
    band = RateBand(0.1)
    cert = build_embedding(net, band)
    bad = EmbeddingCertificate(cert.arrangement, cert.delta0 / 2.0,
                               cert.cover, cert.epsilon_split)
    report = sample_verify_embedding(bad, net, band, 300, seed=2024)
    assert len(report.failures) == 100
    assert report.passes == 200
    states = per_trial_states(net.n, 300, 2024, len(net.reactions))
    for f in report.failures:
        assert set(f.rates) <= {band.lo, band.hi}
        sched = RateSchedule.constant(np.array(f.rates), band)
        replay = verify_embedding_at(bad, net, sched, 0.0, np.array(f.x))
        assert not replay.contained
        v = mass_action_field(net, np.array(f.rates), np.array(f.x))
        margin = float(np.dot(f.witness, v))
        assert margin > 0.0
        assert abs(margin - f.residual) <= 1e-9 * max(1.0, abs(margin))
        assert np.array_equal(f.log_x, states[f.trial])
        assert np.array_equal(f.x, np.exp(states[f.trial]))
        assert set(f.to_json_dict()) == {"trial", "x", "log_x", "rates",
                                         "residual", "witness"}


def per_cell_report(cert, net, band, trials, seed, box=(-8.0, 8.0),
                    tol=1e-9):
    """Passes and {trial: (residual, witness, rates)} of the every-rate
    check run one cell at a time: the visited sign rows through np.unique,
    each cell's polar generators from geometry, and one worst-corner matrix
    product per cell over that cell's trials."""
    kin, n = net.kinetics, net.n
    u = np.random.default_rng(seed).random((trials, n + len(kin.k)))
    log_x = box[0] + (box[1] - box[0]) * u[:, :n]
    d = log_x @ cert.arrangement.normal_matrix().reshape(-1, n).T
    signs = np.where(np.abs(d) < cert.delta0, 0, np.sign(d)).astype(np.int8)
    log_mono = log_x @ kin.Ys.T
    shift = log_mono.max(axis=1, initial=0.0)
    mono = np.exp(log_mono - shift[:, None])
    bound = tol * np.maximum(np.exp(-shift), band.hi * (
        mono @ np.linalg.norm(kin.D, axis=1)))
    cells, cell_of = np.unique(signs, axis=0, return_inverse=True)
    failures = {}
    for c, cell in enumerate(cells):
        polar = polar_cone(cell_cone(cert.arrangement, cell.tolist(), n),
                           dim=n)
        if not len(polar):
            continue
        rows = np.flatnonzero(cell_of.ravel() == c)
        a = polar @ kin.D.T
        vals = mono[rows] @ np.where(a > 0.0, band.hi * a, band.lo * a).T
        for t, row in zip(rows, vals):
            g = int(row.argmax())
            if row[g] > bound[t]:
                w = polar[g]
                rates = np.where(kin.D @ w > 0.0, band.hi, band.lo)
                failures[int(t)] = (row[g] * np.exp(shift[t]), tuple(w),
                                    tuple(rates))
    return trials - len(failures), failures


def assert_matches_per_cell(cert, net, band, seed, trials=1000):
    report = sample_verify_embedding(cert, net, band, trials, seed=seed)
    passes, want = per_cell_report(cert, net, band, trials, seed)
    assert report.passes == passes
    assert [f.trial for f in report.failures] == sorted(want)
    for f in report.failures:
        residual, witness, rates = want[f.trial]
        assert f.witness == witness and f.rates == rates
        assert abs(f.residual - residual) <= 1e-12 * abs(residual)
    return report


@pytest.mark.parametrize("name", EMBEDDING_CORPUS)
def test_stacked_pass_matches_per_cell_loop(name):
    net = load(name)
    for eps in (0.9, 0.5, 0.1):
        band = RateBand(eps)
        cert = build_embedding(net, band)
        for seed in (5, 6):
            assert assert_matches_per_cell(cert, net, band, seed).all_passed


@pytest.mark.parametrize("name", ["triangle", "cycle_4sp"])
def test_stacked_pass_matches_per_cell_loop_on_halved_delta0(name):
    net = load(name)
    for eps in (0.5, 0.1):
        band = RateBand(eps)
        cert = build_embedding(net, band)
        bad = EmbeddingCertificate(cert.arrangement, cert.delta0 / 2.0,
                                   cert.cover, cert.epsilon_split)
        for seed in (5, 6):
            report = assert_matches_per_cell(bad, net, band, seed)
            assert report.failures


def test_no_visited_cell_has_generators():
    # at eps 0.01 the triangle's bands cover the whole default box: every
    # visited cell lies on all three bands and its cone is all of space
    net = load("triangle")
    band = RateBand(0.01)
    cert = build_embedding(net, band)
    for log_x in per_trial_states(net.n, 50, 0, len(net.reactions)):
        gens = inclusion_cone(cert.arrangement, cert.delta0, log_x)
        assert len(polar_cone(gens, dim=net.n)) == 0
    report = sample_verify_embedding(cert, net, band, 1000, seed=0)
    assert report.passes == 1000 and report.failures == ()


def test_small_polar_tables_and_trial_blocks_keep_the_report(monkeypatch):
    # a table bound below one call's cell count empties the tables mid-call
    # and a ragged last trial block is shorter; the report does not change
    # and the tables never exceed the bound
    net = load("cycle_4sp")
    band = RateBand(0.1)
    cert = build_embedding(net, band)
    bad = EmbeddingCertificate(cert.arrangement, cert.delta0 / 2.0,
                               cert.cover, cert.epsilon_split)
    want = sample_verify_embedding(bad, net, band, 1000, seed=3)
    assert want.failures
    monkeypatch.setattr(embedding, "_POLAR_CELLS", 16)
    monkeypatch.setattr(embedding, "_TRIAL_BLOCK", 96)
    monkeypatch.setattr(embedding, "_polar_tables", {})
    got = sample_verify_embedding(bad, net, band, 1000, seed=3)
    assert got.to_json_dict() == want.to_json_dict()
    assert 0 < sum(map(len, embedding._polar_tables.values())) <= 16


@pytest.mark.parametrize("H", [0, 1, 5, 39, 40, 45])
def test_cell_keys_group_rows_as_np_unique_does(H):
    # base-3 keys up to H = 39 (3^39 < 2^63), np.unique's row sort above;
    # either way the cells come in np.unique's order
    rng = np.random.default_rng(H)
    pool = rng.integers(-1, 2, size=(12, H)).astype(np.int8)
    pool[0], pool[1] = -1, 1  # the smallest and the largest key
    signs = pool[rng.integers(0, 12, size=400)]
    cells, cell_of = embedding._cells(signs)
    want_cells, want_of = np.unique(signs, axis=0, return_inverse=True)
    assert np.array_equal(cells, want_cells)
    assert np.array_equal(cell_of.ravel(), want_of.ravel())
