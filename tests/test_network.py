"""Network container, parser, and graph-structure tests.

Oracles used here and nowhere in the library:
  * dense reachability (Floyd-Warshall) for strong-connectivity checks,
  * numpy.linalg.matrix_rank for the stoichiometric dimension,
  * Gaussian elimination over Fraction for the exact integer elimination,
  * direct edge bookkeeping for cycle-cover soundness.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_gac import corpus
from toric_gac.dynamics import mass_action_field
from toric_gac.network import (
    Complex,
    CycleCover,
    DuplicateSpeciesError,
    NetworkParseError,
    NonFiniteValueError,
    NonpositiveRateError,
    NotWeaklyReversible,
    Reaction,
    ReactionNetwork,
    UnknownSpeciesError,
    _bareiss,
    cycle_cover,
    deficiency,
    is_reversible,
    is_weakly_reversible,
    linkage_classes,
    parse_network,
    stoichiometric_rank,
    stoichiometric_subspace,
)

# ---------------------------------------------------------------------------
# oracle helpers


def reachability_oracle(m, edges):
    """Boolean reachability closure, including trivial self-reachability."""
    reach = np.eye(m, dtype=bool)
    for (u, v) in edges:
        reach[u, v] = True
    for k in range(m):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


def same_scc_oracle(m, edges):
    reach = reachability_oracle(m, edges)
    return reach & reach.T


def network_from_edges(m, edges, rates=None):
    """Embed an abstract digraph on distinct points (i, i^2)."""
    cxs = tuple(Complex(i, (float(i), float(i * i))) for i in range(m))
    rs = tuple(
        Reaction(u, v, 1.0 if rates is None else rates[j])
        for j, (u, v) in enumerate(edges)
    )
    return ReactionNetwork(("A", "B"), cxs, rs)


def random_digraph(rng, max_m=8):
    m = int(rng.integers(2, max_m + 1))
    pairs = [(u, v) for u in range(m) for v in range(m) if u != v]
    k = int(rng.integers(1, len(pairs) + 1))
    idx = rng.choice(len(pairs), size=k, replace=False)
    return m, [pairs[i] for i in idx]


def random_weakly_reversible(rng, max_m=7):
    """Union of directed cycles on a random vertex set is weakly reversible."""
    m = int(rng.integers(2, max_m + 1))
    edges = set()
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(2, m + 1))
        verts = rng.permutation(m)[:size]
        for i in range(size):
            u, v = int(verts[i]), int(verts[(i + 1) % size])
            if u != v:
                edges.add((u, v))
    used = sorted({u for e in edges for u in e})
    relabel = {u: i for i, u in enumerate(used)}
    return len(used), [(relabel[u], relabel[v]) for (u, v) in sorted(edges)]


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_forms():
    net = parse_network(
        """
        species A B C
        A -> B ; k=1.5
        B + C <-> 2 A ; kf=2 kr=0.25
        complex (0.5, 1, 0) -> complex (0, 0, 1) ; k=3
        """
    )
    assert net.species == ("A", "B", "C")
    ys = [c.y for c in net.complexes]
    assert (1.0, 0.0, 0.0) in ys and (0.0, 1.0, 1.0) in ys
    assert (2.0, 0.0, 0.0) in ys and (0.5, 1.0, 0.0) in ys
    rates = [r.rate for r in net.reactions]
    assert rates == [1.5, 2.0, 0.25, 3.0]
    rev = net.reactions[1], net.reactions[2]
    assert rev[0].source == rev[1].target and rev[0].target == rev[1].source


def test_parse_zero_complex_and_comments():
    net = parse_network("species X\n# nothing yet\n0 -> X ; k=2 # inline\n")
    assert [c.y for c in net.complexes] == [(0.0,), (1.0,)]


def test_parse_deduplicates_complexes():
    net = parse_network(
        "species A B\nA -> B ; k=1\nB -> A + B ; k=2\nA + B -> A ; k=1\n"
    )
    assert net.m == 3
    assert len(net.reactions) == 3


def test_parse_malformed_line_reports_position():
    with pytest.raises(NetworkParseError) as err:
        parse_network("species A B\nA -> ; k=1\n")
    assert err.value.line == 2
    assert err.value.column >= 5


def test_parse_unknown_species():
    with pytest.raises(UnknownSpeciesError) as err:
        parse_network("species A\nA -> Q ; k=1\n")
    assert err.value.line == 2


def test_parse_nonpositive_rate():
    with pytest.raises(NonpositiveRateError):
        parse_network("species A B\nA -> B ; k=-1\n")
    with pytest.raises(NonpositiveRateError):
        parse_network("species A B\nA <-> B ; kf=1 kr=0\n")


@pytest.mark.parametrize("text, column", [
    ("species A B\nA -> B ; k=1e400\n", 12),
    ("species A B\nA <-> B ; kf=1 kr=-1e400\n", 19),
    ("species A B\n1e400 A -> B ; k=1\n", 1),
    ("species A B\nA -> 2 A + 1E999 B ; k=1\n", 12),
    ("species A B\ncomplex (1, 2e308) -> B ; k=1\n", 13),
])
def test_parse_value_that_overflows_a_float(text, column):
    # float() reads these as +-inf; each is a typed error at its token
    with pytest.raises(NonFiniteValueError) as err:
        parse_network(text)
    assert (err.value.line, err.value.column) == (2, column)
    assert isinstance(err.value, NetworkParseError)


def test_parse_duplicate_species():
    with pytest.raises(DuplicateSpeciesError):
        parse_network("species A A\nA -> 2 A ; k=1\n")
    with pytest.raises(DuplicateSpeciesError):
        parse_network("species A\nspecies B\n")


def test_parse_rejects_self_loop():
    with pytest.raises(NetworkParseError):
        parse_network("species A B\nA + B -> B + A ; k=1\n")


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_reaction_rejects_a_rate_that_is_not_positive_and_finite(rate):
    # an infinite rate would reach the exact tree constants, which cannot
    # take it as an integer ratio
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        Reaction(0, 1, rate)


def test_parse_missing_header():
    with pytest.raises(NetworkParseError):
        parse_network("A -> B ; k=1\n")


def test_corpus_parses_and_is_weakly_reversible():
    for name in corpus.EMBEDDING_CORPUS:
        net = corpus.load(name)
        assert 2 <= net.n <= 4, name
        assert net.m <= 6, name
        assert is_weakly_reversible(net), name


# round-trip: explicit .crn text parses back to the network bit-for-bit


def crn_text(net: ReactionNetwork) -> str:
    """One ``complex (...) -> complex (...) ; k=...`` line per reaction,
    every float written with repr so it reparses exactly."""
    def cplx(i):
        return "complex (" + ", ".join(repr(v) for v in
                                       net.complexes[i].y) + ")"
    lines = ["species " + " ".join(net.species)]
    lines += [f"{cplx(r.source)} -> {cplx(r.target)} ; k={r.rate!r}"
              for r in net.reactions]
    return "\n".join(lines) + "\n"


_js = st.integers(min_value=0, max_value=3)


@st.composite
def small_networks(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=5))
    vecs = draw(
        st.lists(
            st.tuples(*([st.floats(-4, 4, allow_nan=False).map(lambda v: round(v, 3))] * n)),
            min_size=m, max_size=m, unique=True,
        )
    )
    pairs = [(u, v) for u in range(m) for v in range(m) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    rates = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
            min_size=len(edges), max_size=len(edges),
        )
    )
    species = tuple(f"S{i}" for i in range(n))
    # parsed networks number complexes in order of first appearance, so
    # canonicalize the generated one the same way
    relabel: dict[int, int] = {}
    for (u, v) in edges:
        for w in (u, v):
            if w not in relabel:
                relabel[w] = len(relabel)
    cxs = tuple(
        Complex(relabel[i], vecs[i])
        for i in sorted(relabel, key=relabel.get)
    )
    rs = tuple(
        Reaction(relabel[u], relabel[v], r) for (u, v), r in zip(edges, rates)
    )
    return ReactionNetwork(species, cxs, rs)


@settings(max_examples=60, deadline=None)
@given(small_networks())
def test_serialize_parse_round_trip(net):
    again = parse_network(crn_text(net))
    assert again.species == net.species
    assert [c.y for c in again.complexes] == [c.y for c in net.complexes]
    assert [(r.source, r.target, r.rate) for r in again.reactions] == [
        (r.source, r.target, r.rate) for r in net.reactions
    ]


# ---------------------------------------------------------------------------
# graph structure


def test_weak_reversibility_examples():
    assert is_weakly_reversible(corpus.load("triangle"))
    assert not is_weakly_reversible(
        parse_network("species A B\nA -> B ; k=1\n")
    )
    # no reactions at all: vacuously weakly reversible
    net = ReactionNetwork(("A",), (Complex(0, (1.0,)),), ())
    assert is_weakly_reversible(net)


def test_weak_reversibility_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, edges = random_digraph(rng)
        net = network_from_edges(m, edges)
        oracle = same_scc_oracle(m, edges)
        expected = all(oracle[u, v] for (u, v) in edges)
        assert is_weakly_reversible(net) == expected


def test_reversibility():
    assert is_reversible(corpus.load("rev_pair"))
    assert is_reversible(corpus.load("rev_triangle_db"))
    assert not is_reversible(corpus.load("triangle"))


def test_linkage_classes():
    assert linkage_classes(corpus.load("two_pairs_4sp")) == [[0, 1], [2, 3]]
    assert linkage_classes(corpus.load("triangle")) == [[0, 1, 2]]
    # isolated complex forms its own class
    net = ReactionNetwork(
        ("A",),
        (Complex(0, (1.0,)), Complex(1, (2.0,)), Complex(2, (3.0,))),
        (Reaction(0, 1, 1.0), Reaction(1, 0, 1.0)),
    )
    assert linkage_classes(net) == [[0, 1], [2]]


def test_stoichiometric_subspace_orthonormal_and_rank():
    for name in corpus.EMBEDDING_CORPUS:
        net = corpus.load(name)
        basis, s = stoichiometric_subspace(net)
        assert basis.shape == (net.n, s)
        assert np.allclose(basis.T @ basis, np.eye(s), atol=1e-12)
        ymat = net.kinetics.Y
        diffs = np.array([ymat[r.target] - ymat[r.source] for r in net.reactions])
        assert s == np.linalg.matrix_rank(diffs)
        # every difference vector lies in the span
        resid = diffs - (diffs @ basis) @ basis.T
        assert np.max(np.abs(resid)) < 1e-10


def svd_rank(net):
    """Oracle: numpy's SVD rank of the reaction vectors."""
    ymat = np.array([c.y for c in net.complexes]).reshape(net.m, net.n)
    diffs = np.array([ymat[r.target] - ymat[r.source] for r in net.reactions])
    return int(np.linalg.matrix_rank(diffs.reshape(-1, net.n)))


@pytest.mark.parametrize("name", sorted(corpus.NETWORK_TEXTS))
def test_exact_rank_equals_svd_rank_on_the_corpus(name):
    net = corpus.load(name)
    assert stoichiometric_rank(net) == svd_rank(net)
    assert stoichiometric_subspace(net)[1] == stoichiometric_rank(net)


@st.composite
def integer_stoichiometry(draw):
    """Distinct small-integer complexes whose coordinates may repeat a
    linear pattern, so that rank-deficient reaction sets are common."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2, 6))
    coord = st.integers(-2, 2)
    vecs = draw(st.lists(st.tuples(*[coord] * n), min_size=m, max_size=m,
                         unique=True))
    if n > 1 and draw(st.booleans()):  # last coordinate copies the first
        vecs = list(dict.fromkeys(v[:-1] + (v[0],) for v in vecs))
    edges = draw(st.lists(st.tuples(st.integers(0, len(vecs) - 1),
                                    st.integers(0, len(vecs) - 1))
                          .filter(lambda e: e[0] != e[1]),
                          min_size=0, max_size=8))
    cxs = tuple(Complex(i, tuple(map(float, v))) for i, v in enumerate(vecs))
    species = tuple(f"S{i}" for i in range(n))
    return ReactionNetwork(species, cxs,
                           tuple(Reaction(u, v, 1.0) for u, v in edges))


@settings(max_examples=300, deadline=None)
@given(integer_stoichiometry())
def test_exact_rank_equals_svd_rank_on_integer_stoichiometry(net):
    assert stoichiometric_rank(net) == svd_rank(net)


def test_exact_rank_reads_the_decimals_the_text_gave():
    # the two reaction vectors are both (0.1, 0.2) as decimals, but not as
    # binary floats: 0.2 - 0.1 and 0.3 - 0.2 differ in the last bit
    chain = parse_network("""species A B
        complex (0.1, 0.7) <-> complex (0.2, 0.9) ; kf=1 kr=1
        complex (0.2, 0.9) <-> complex (0.3, 1.1) ; kf=1 kr=1""")
    assert stoichiometric_rank(chain) == 1
    assert deficiency(chain) == 3 - 1 - 1
    # numpy coordinates, whose repr names their type, read the same
    numpy_chain = ReactionNetwork(chain.species, tuple(
        Complex(c.id, tuple(map(np.float64, c.y))) for c in chain.complexes),
        chain.reactions)
    assert stoichiometric_rank(numpy_chain) == 1
    # (1, 0) and (1, 1e-20) are independent, below the SVD's tolerance
    near = parse_network("""species A B
        complex (0, 0) -> complex (1, 0) ; k=1
        complex (0, 0) -> complex (1, 1e-20) ; k=1""")
    assert stoichiometric_rank(near) == 2
    assert svd_rank(near) == 1
    assert stoichiometric_subspace(near)[0].shape == (2, 2)


def fraction_elimination(rows):
    """Oracle: (rank, determinant) by Gaussian elimination over Fraction
    with row swaps; the determinant is 0 unless the matrix is square and
    nonsingular, and 1 for the empty matrix."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    for j in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][j]
        for i in range(rank + 1, len(a)):
            f = a[i][j] / a[rank][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    square = all(len(row) == len(a) for row in a)
    return rank, det if square and rank == len(a) else Fraction(0)


def random_integer_matrix(rng):
    """Small entries, huge entries beyond 2**1100, dependent rows, and
    strictly diagonally dominant squares, whose leading minors are all
    nonzero."""
    r, c = (int(v) for v in rng.integers(0, 6, size=2))
    kind = int(rng.integers(4))
    if kind == 3:
        c = r
    rows = [[int(v) for v in rng.integers(-3, 4, size=c)] for _ in range(r)]
    if kind == 1:
        rows = [[v * 2 ** 1100 + int(rng.integers(-2, 3)) for v in row]
                for row in rows]
    if kind == 2 and r >= 2:  # last row: a combination of the first two
        f, g = (int(v) for v in rng.integers(-3, 4, size=2))
        rows[-1] = [f * a + g * b for a, b in zip(rows[0], rows[1])]
    if kind == 3:
        sign = int(rng.choice([-1, 1]))
        for i, row in enumerate(rows):
            row[i] = sign * (1 + sum(abs(v) for j, v in enumerate(row) if j != i))
    return kind, rows


def test_bareiss_matches_a_fraction_oracle():
    rng = np.random.default_rng(20261020)
    seen = set()
    for _ in range(600):
        kind, rows = random_integer_matrix(rng)
        rank, last = _bareiss([row[:] for row in rows])
        want_rank, want_det = fraction_elimination(rows)
        assert rank == want_rank
        if want_det:
            # row order may move a pivot, which flips only the sign; a
            # diagonally dominant square pivots on its first row each time
            assert abs(last) == abs(want_det)
            if kind == 3:
                assert last == want_det
            seen.add((kind, rank < len(rows)))
        else:
            seen.add((kind, True))
    assert {(0, False), (1, False), (2, True), (3, False)} <= seen
    assert _bareiss([]) == (0, 1)
    assert _bareiss([[], []]) == (0, 1)
    assert _bareiss([[2 ** 1200, 1], [2 ** 1201, 2]]) == (1, 2 ** 1200)


def test_kinetics_view_is_cached_and_read_only():
    net = network_from_edges(3, [(0, 1), (1, 2), (2, 0), (1, 0)],
                             rates=[1.0, 2.0, 3.0, 0.5])
    kin = net.kinetics
    assert net.kinetics is kin
    assert np.array_equal(kin.Y, [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])
    assert np.array_equal(kin.source, [0, 1, 2, 1])
    assert np.array_equal(kin.target, [1, 2, 0, 0])
    assert np.array_equal(kin.Ys, kin.Y[kin.source])
    assert np.array_equal(kin.D, kin.Y[kin.target] - kin.Y[kin.source])
    assert np.array_equal(kin.k, [1.0, 2.0, 3.0, 0.5])
    for f in dataclasses.fields(kin):
        arr = getattr(kin, f.name)
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_kinetics_view_without_reactions():
    net = ReactionNetwork(("A", "B"), (), ())
    assert net.kinetics.Ys.shape == (0, 2)
    assert net.kinetics.D.shape == (0, 2)
    f = mass_action_field(net, None, np.array([1.0, 2.0]))
    assert np.array_equal(f, [0.0, 0.0])
    assert not np.any(np.signbit(f))
    basis, s = stoichiometric_subspace(net)
    assert basis.shape == (2, 0) and s == 0


def test_deficiency_examples():
    assert deficiency(corpus.load("triangle")) == 0  # 3 - 1 - 2
    assert deficiency(corpus.load("pair_3sp")) == 0  # 2 - 1 - 1
    assert deficiency(corpus.load("chain_1sp_balanced")) == 1  # 3 - 1 - 1
    assert deficiency(corpus.load("two_pairs_4sp")) == 0  # 4 - 2 - 2


def test_deficiency_nonnegative_on_random_weakly_reversible():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m, edges = random_weakly_reversible(rng)
        net = network_from_edges(m, edges)
        assert deficiency(net) >= 0


# ---------------------------------------------------------------------------
# cycle covers


def check_cover_soundness(net, cover: CycleCover):
    edges = set(net.edge_list())
    counted: dict[tuple[int, int], int] = {}
    for cyc in cover.cycles:
        assert len(cyc) >= 2
        assert len(set(cyc)) == len(cyc)
        for i in range(len(cyc)):
            e = (cyc[i], cyc[(i + 1) % len(cyc)])
            assert e in edges, f"cycle uses a non-edge {e}"
            counted[e] = counted.get(e, 0) + 1
    assert counted == cover.multiplicity
    assert set(counted) == edges, "some edge is not covered"


def test_cycle_cover_triangle():
    cover = cycle_cover(corpus.load("triangle"))
    assert cover.cycles == ((0, 1, 2),)
    assert all(v == 1 for v in cover.multiplicity.values())


def test_cycle_cover_shared_vertex():
    net = corpus.load("two_triangles_vertex")
    cover = cycle_cover(net)
    assert len(cover.cycles) == 2
    assert all(v == 1 for v in cover.multiplicity.values())
    check_cover_soundness(net, cover)


def test_cycle_cover_shared_edge_multiplicity():
    net = corpus.load("two_triangles_edge")
    cover = cycle_cover(net)
    check_cover_soundness(net, cover)
    assert max(cover.multiplicity.values()) == 2


def test_cycle_cover_rejects_non_weakly_reversible():
    with pytest.raises(NotWeaklyReversible):
        cycle_cover(parse_network("species A B\nA -> B ; k=1\n"))
    # the first two edges close a cycle before the first edge with no
    # path back, B -> C, is reached; the message names that edge
    with pytest.raises(NotWeaklyReversible, match="edge 1->2 leaves"):
        cycle_cover(parse_network(
            "species A B C D\nA <-> B ; kf=1 kr=1\nB -> C ; k=1\n"
            "C -> D ; k=1\n"))


def test_cycle_cover_on_corpus_and_random_graphs():
    for name in corpus.EMBEDDING_CORPUS:
        net = corpus.load(name)
        check_cover_soundness(net, cycle_cover(net))
    rng = np.random.default_rng(1234)
    for _ in range(150):
        m, edges = random_weakly_reversible(rng)
        net = network_from_edges(m, edges)
        check_cover_soundness(net, cycle_cover(net))
