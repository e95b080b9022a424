"""Balance residuals, tree constants, Lyapunov evaluation, Birch points.

The test-local in-tree oracle enumerates (m-1)-subsets of class edges and
keeps those forming a spanning in-tree — a different algorithm from the
package's matrix-tree minors, so the two are independent cross-checks.
With ``Fraction`` rates the oracle's sum is exact.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize

from toric_gac import equilibria
from toric_gac.corpus import EMBEDDING_CORPUS, NETWORK_TEXTS, load
from toric_gac.dynamics import DimensionMismatch, mass_action_field
from toric_gac.equilibria import (
    EquilibriumReport,
    NewtonDivergence,
    NoComplexBalance,
    SingularSystem,
    birch_point,
    lyapunov_derivative,
    lyapunov_gradient,
    lyapunov_value,
    solve_complex_balanced,
    tree_constants,
    vertex_balance_residual,
)
from toric_gac.network import (
    NotWeaklyReversible,
    deficiency,
    linkage_classes,
    parse_network,
    stoichiometric_subspace,
)

# ---------------------------------------------------------------------------
# oracles

def intree_weight_oracle(members, edges, root):
    """Sum over (m-1)-edge subsets that form a spanning in-tree at root;
    exact when the edge rates are ``Fraction`` values."""
    m = len(members)
    total = 0
    for subset in combinations(range(len(edges)), m - 1):
        out_count = {v: 0 for v in members}
        parent = {}
        for ei in subset:
            u, v, w = edges[ei]
            out_count[u] += 1
            parent[u] = v
        if out_count[root] != 0:
            continue
        if any(out_count[v] != 1 for v in members if v != root):
            continue
        ok = True
        for v in members:
            cur, seen = v, set()
            while cur != root:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parent[cur]
            if not ok:
                break
        if not ok:
            continue
        w = 1
        for ei in subset:
            w *= edges[ei][2]
        total += w
    return total


def class_edge_lists(net, rates=None):
    k = [r.rate for r in net.reactions] if rates is None else list(rates)
    out = []
    for members in linkage_classes(net):
        mset = set(members)
        edges = [(r.source, r.target, ke)
                 for r, ke in zip(net.reactions, k) if r.source in mset]
        out.append((members, edges))
    return out


def per_edge_residual(net, rates, x0):
    """Oracle: vertex balance as a Python loop over the edges."""
    ymat = np.array([c.y for c in net.complexes], dtype=float)
    mono = np.array([float(np.prod(x0 ** ymat[i])) for i in range(net.m)])
    out = np.zeros(net.m)
    for r, ke in zip(net.reactions, rates):
        flow = ke * mono[r.source]
        out[r.target] += flow
        out[r.source] -= flow
    return out


def golden_section(f, lo, hi, iters=200):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# balance residual

def test_residual_triangle_at_ones():
    net = load("triangle")
    r = vertex_balance_residual(net, [1.0, 1.0, 1.0], [1.0, 1.0])
    assert np.allclose(r, 0.0, atol=1e-14)


def test_residual_bit_identical_to_per_edge_loop():
    rng = np.random.default_rng(2025)
    for name in NETWORK_TEXTS:
        net = load(name)
        for _ in range(200):
            x0 = np.exp(rng.uniform(-8.0, 8.0, size=net.n))
            rates = np.exp(rng.uniform(-2.0, 2.0, size=len(net.reactions)))
            got = vertex_balance_residual(net, rates, x0)
            want = per_edge_residual(net, rates, x0)
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name


def test_residual_pair_examples():
    net = load("rev_pair")
    assert np.allclose(
        vertex_balance_residual(net, [1.0, 1.0], [1.0, 1.0]), 0.0, atol=1e-14)
    r = vertex_balance_residual(net, [1.0, 1.0], [2.0, 1.0])
    assert np.allclose(r, [-1.0, 1.0], atol=1e-14)


def test_residual_validation():
    net = load("rev_pair")
    with pytest.raises(DimensionMismatch):
        vertex_balance_residual(net, None, [1.0])
    with pytest.raises(ValueError):
        vertex_balance_residual(net, None, [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        vertex_balance_residual(net, [1.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# detailed balance

def detailed_balanced(net, x, tol=1e-9) -> bool:
    """Test-local oracle: every edge's mass-action flux equals the flux of
    its reverse edge at x (reversible networks only)."""
    flux = {(r.source, r.target):
            r.rate * math.prod(xi ** yi for xi, yi
                               in zip(x, net.complexes[r.source].y))
            for r in net.reactions}
    return all(abs(fwd - flux[(v, u)])
               <= tol * max(1.0, abs(fwd), abs(flux[(v, u)]))
               for (u, v), fwd in flux.items())


def test_detailed_balance_pair():
    net = load("rev_pair")  # kf=2 kr=3
    x0 = solve_complex_balanced(net).x0
    assert x0[0] / x0[1] == pytest.approx(1.5, rel=1e-12)
    assert detailed_balanced(net, x0)
    assert detailed_balanced(net, [3.0, 2.0])
    assert not detailed_balanced(net, [1.0, 1.0])


def test_complex_balanced_but_not_detailed():
    net = load("rev_triangle_skew")
    report = solve_complex_balanced(net)
    assert report.found
    x0 = np.array(report.x0)
    assert np.allclose(x0, [1.0, 1.0], atol=1e-10)
    assert not detailed_balanced(net, x0)


# ---------------------------------------------------------------------------
# tree constants

def test_tree_constants_examples():
    assert tree_constants(load("triangle")).K == (1.0, 1.0, 1.0)
    assert tree_constants(load("rev_pair")).K == (3.0, 2.0)
    tc = tree_constants(load("two_pairs_4sp"))
    assert tc.K == (2.0, 1.0, 4.0, 3.0)
    assert len(tc.classes) == 2


def test_tree_constants_match_subset_oracle():
    rng = np.random.default_rng(20240811)
    for name in EMBEDDING_CORPUS:
        net = load(name)
        rates = np.exp(rng.uniform(-1.0, 1.0, size=len(net.reactions)))
        tc = tree_constants(net, rates)
        for members, edges in class_edge_lists(net, rates):
            for v in members:
                want = intree_weight_oracle(members, edges, v)
                assert want > 0.0
                assert abs(tc.K[v] - want) <= 1e-12 * max(1.0, want)


def test_tree_constants_are_correctly_rounded():
    """Each constant is the exact in-tree sum rounded once: equal, bit for
    bit, to the rounded Fraction oracle.  The 12-vertex cycle is a class
    larger than any corpus class."""
    cycle = parse_network("species A\n" + "".join(
        f"complex ({i}) -> complex ({(i + 1) % 12}) ; k=1\n" for i in range(12)))
    rng = np.random.default_rng(20261018)
    for net in [load(name) for name in NETWORK_TEXTS] + [cycle]:
        for _ in range(20):
            rates = np.exp(rng.uniform(-5.0, 5.0, size=len(net.reactions)))
            tc = tree_constants(net, rates)
            exact = [Fraction(float(r)) for r in rates]
            for members, edges in class_edge_lists(net, exact):
                for v in members:
                    want = intree_weight_oracle(members, edges, v)
                    assert tc.K[v] == float(want)


def test_tree_constants_class_scaling():
    net = load("two_pairs_4sp")
    base = tree_constants(net).K
    c = 2.5
    scaled_rates = [1.0 * c, 2.0 * c, 3.0, 4.0]  # scale only class {A,B}
    got = tree_constants(net, scaled_rates).K
    # both classes have 2 vertices: exponent m-1 = 1
    assert np.allclose(got[:2], np.array(base[:2]) * c, rtol=1e-12)
    assert np.allclose(got[2:], base[2:], rtol=1e-12)


def test_tree_constants_need_weak_reversibility():
    with pytest.raises(NotWeaklyReversible):
        tree_constants(parse_network("""
            species A B
            A -> B ; k=1
        """))


def test_tree_constants_overflow_is_reported():
    net = load("triangle")
    for rate in (1e300, 1e-300):  # in-tree weights of 1e600 and 1e-600
        with pytest.raises(SingularSystem):
            tree_constants(net, [rate, rate, rate])


# ---------------------------------------------------------------------------
# complex-balance solving

def test_solve_triangle():
    report = solve_complex_balanced(load("triangle"))
    assert report.found and report.method == "tree_solve"
    assert np.allclose(report.x0, [1.0, 1.0], atol=1e-12)
    assert max(abs(v) for v in report.residual) <= 1e-10


def test_solve_pair_min_norm_ratio():
    report = solve_complex_balanced(load("rev_pair"))
    assert report.found
    x0 = np.array(report.x0)
    assert abs(x0[0] / x0[1] - 1.5) <= 1e-10
    assert max(abs(v) for v in report.residual) <= 1e-10


def test_solve_whole_corpus_honest():
    # deficiency-zero weakly reversible networks are vertex balanced for
    # every rate choice; higher-deficiency ones may or may not be, but a
    # found report must always carry a tiny residual
    for name in EMBEDDING_CORPUS:
        net = load(name)
        report = solve_complex_balanced(net)
        if deficiency(net) == 0:
            assert report.found, name
        if report.found:
            assert max(abs(v) for v in report.residual) <= 1e-10, name


def test_solve_checks_its_input_once(monkeypatch):
    # the solve checks weak reversibility and the rates, then reaches the
    # tree constants without checking them again
    calls = {"reversible": 0, "rates": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(equilibria, "is_weakly_reversible",
                        counted("reversible", equilibria.is_weakly_reversible))
    monkeypatch.setattr(equilibria, "_edge_rates",
                        counted("rates", equilibria._edge_rates))
    assert solve_complex_balanced(load("triangle")).found
    assert calls == {"reversible": 1, "rates": 2}  # + the residual's rates
    with pytest.raises(NotWeaklyReversible):
        solve_complex_balanced(parse_network("species A B\nA -> B ; k=1"))


def test_solve_chain_balanced_and_unbalanced():
    ok = solve_complex_balanced(load("chain_1sp_balanced"))
    assert ok.found
    assert np.allclose(ok.x0, [1.0], atol=1e-10)

    bad = solve_complex_balanced(load("chain_1sp_unbalanced"))
    assert not bad.found
    assert bad.x0 is None


def test_unbalanced_chain_grid_oracle():
    # residual at the middle vertex is x^2 - x + 1/2 >= 1/4 (normalized
    # rates), so no positive x comes close to balance anywhere on a wide
    # log grid
    net = load("chain_1sp_unbalanced")
    k_norm = np.array([1.0, 1.0, 1.0, 2.0]) / 2.0
    best = math.inf
    for x in np.logspace(-3.0, 3.0, 4001):
        r = vertex_balance_residual(net, k_norm, [x])
        best = min(best, float(np.max(np.abs(r))))
    assert best >= 0.2


def test_report_json_shape():
    d = solve_complex_balanced(load("rev_pair")).to_json_dict()
    assert set(d) == {"x0", "residual", "method"}
    assert isinstance(d["x0"], list) and len(d["x0"]) == 2
    assert isinstance(d["residual"], list) and len(d["residual"]) == 2
    absent = solve_complex_balanced(load("chain_1sp_unbalanced")).to_json_dict()
    assert absent["x0"] is None


# ---------------------------------------------------------------------------
# Lyapunov function

def test_lyapunov_value_examples():
    assert lyapunov_value([1.0, 1.0], [1.0, 1.0]) == 0.0
    assert abs(lyapunov_value([math.e, 1.0], [1.0, 1.0]) - 1.0) <= 1e-14
    with pytest.raises(DimensionMismatch):
        lyapunov_value([1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        lyapunov_value([1.0, -1.0], [1.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_lyapunov_value_of_a_stack_equals_its_rows(n):
    # experiment reports take one stacked call per trajectory and must
    # stay byte-identical to one call per state
    rng = np.random.default_rng(n)
    xs = np.exp(rng.uniform(-20.0, 20.0, size=(300, n)))
    x0 = np.exp(rng.uniform(-5.0, 5.0, size=n))
    got = lyapunov_value(xs, x0)
    assert got.shape == (300,)
    assert np.array_equal(got, [lyapunov_value(x, x0) for x in xs])
    with pytest.raises(DimensionMismatch):
        lyapunov_value(xs, np.ones(n + 1))
    with pytest.raises(DimensionMismatch):
        lyapunov_value(xs[None], x0)
    with pytest.raises(ValueError):
        lyapunov_value(-xs, x0)


def test_lyapunov_positive_away_from_minimum():
    rng = np.random.default_rng(3)
    x0 = np.array([0.7, 2.0, 1.3])
    for _ in range(100):
        x = np.exp(rng.uniform(-2.0, 2.0, size=3))
        if np.allclose(x, x0):
            continue
        assert lyapunov_value(x, x0) > 0.0


def test_lyapunov_derivative_examples():
    net = load("rev_pair")
    assert lyapunov_derivative(net, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]) == 0.0
    got = lyapunov_derivative(net, [1.0, 1.0], [2.0, 1.0], [1.0, 1.0])
    assert abs(got - (-math.log(2.0))) <= 1e-14


def test_lyapunov_decrease_on_balanced_instances():
    rng = np.random.default_rng(11)
    for name in ("rev_pair", "rev_triangle_skew", "two_pairs_4sp"):
        net = load(name)
        report = solve_complex_balanced(net)
        x0 = np.array(report.x0)
        for _ in range(200):
            x = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=net.n))
            assert lyapunov_derivative(net, None, x, x0) <= 1e-12


def test_lyapunov_gradient_vs_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(1, 5))
        x = np.exp(rng.uniform(-1.5, 1.5, size=n))
        x0 = np.exp(rng.uniform(-1.5, 1.5, size=n))
        grad = lyapunov_gradient(x, x0)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (lyapunov_value(x + e, x0) - lyapunov_value(x - e, x0)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


# ---------------------------------------------------------------------------
# Birch points

def test_birch_pair_against_golden_section():
    net = load("rev_pair")
    b = birch_point(net, [1.0, 1.0], [2.0, 1.0])
    assert np.allclose(b, [1.5, 1.5], atol=1e-9)

    report = solve_complex_balanced(net, [1.0, 1.0])
    x0 = np.array(report.x0)
    best = golden_section(
        lambda t: lyapunov_value([t, 3.0 - t], x0), 1e-9, 3.0 - 1e-9)
    assert abs(best - b[0]) <= 1e-7


def test_birch_certificates():
    net = load("rev_pair")
    rates = [1.0, 1.0]
    x_ref = np.array([2.0, 1.0])
    b = birch_point(net, rates, x_ref)
    x0 = np.array(solve_complex_balanced(net, rates).x0)
    basis, s = stoichiometric_subspace(net)
    kkt = np.linalg.norm(basis.T @ (np.log(b) - np.log(x0)))
    assert kkt <= 1e-10
    drift = b - x_ref
    perp = drift - basis @ (basis.T @ drift)
    assert np.linalg.norm(perp) <= 1e-10
    assert np.max(np.abs(vertex_balance_residual(net, rates, b))) <= 1e-8


def test_birch_xref_already_balanced():
    net = load("rev_pair")
    report = solve_complex_balanced(net)
    x0 = np.array(report.x0)
    assert np.allclose(birch_point(net, None, x0), x0, atol=1e-12)


def test_birch_full_dimensional_class():
    net = load("triangle")  # s = n = 2: the class is the whole orthant
    b = birch_point(net, None, [4.0, 2.0])
    assert np.allclose(b, [1.0, 1.0], atol=1e-9)


def test_birch_reuses_a_given_equilibrium():
    for name in ("rev_pair", "two_pairs_4sp", "rev_cycle_3sp_db"):
        net = load(name)
        x0 = solve_complex_balanced(net).x0
        x_ref = np.linspace(0.5, 3.0, net.n)
        assert np.array_equal(birch_point(net, None, x_ref, equilibrium=x0),
                              birch_point(net, None, x_ref))


def test_birch_without_balance_raises():
    with pytest.raises(NoComplexBalance):
        birch_point(load("chain_1sp_unbalanced"), None, [1.0])


def test_birch_4sp_against_bfgs_oracle():
    net = load("two_pairs_4sp")
    x_ref = np.array([2.0, 1.0, 1.0, 3.0])
    b = birch_point(net, None, x_ref)
    x0 = np.array(solve_complex_balanced(net).x0)
    basis, s = stoichiometric_subspace(net)

    def objective(u):
        x = x_ref + basis @ u
        if np.any(x <= 0.0):
            return 1e18
        return lyapunov_value(x, x0)

    res = minimize(objective, np.zeros(s), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000})
    oracle = x_ref + basis @ res.x
    assert np.allclose(b, oracle, atol=1e-6)
    assert np.max(np.abs(vertex_balance_residual(
        net, np.array([1.0, 2.0, 3.0, 4.0]) / 4.0, b))) <= 1e-8


def test_birch_input_validation():
    net = load("rev_pair")
    with pytest.raises(ValueError):
        birch_point(net, None, [1.0, -1.0])
    with pytest.raises(DimensionMismatch):
        birch_point(net, None, [1.0, 1.0, 1.0])
