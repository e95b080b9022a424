"""Small benchmark networks: the one source of the networks the test suite,
the benchmark and the README examples use.

``EMBEDDING_CORPUS`` lists weakly reversible networks with 2-4 species and
at most 6 complexes: single reversible pairs, directed and reversible
cycles, two triangles sharing a vertex, two triangles sharing an edge
(cycle-cover multiplicity 2), a detailed-balanced cycle, and a power-law
pair with non-integer exponents.
"""

from __future__ import annotations

from .network import ReactionNetwork, parse_network

NETWORK_TEXTS: dict[str, str] = {
    # reversible pair A <-> B; detailed balanced at (3c, 2c)
    "rev_pair": """
        species A B
        A <-> B ; kf=2 kr=3
    """,
    # directed 3-cycle on (1,0), (0,1), (0,0)
    "triangle": """
        species A B
        A -> B ; k=1
        B -> 0 ; k=1
        0 -> A ; k=1
    """,
    # reversible triangle, all rates one: detailed balanced at (1,1)
    "rev_triangle_db": """
        species A B
        A <-> B ; kf=1 kr=1
        B <-> 0 ; kf=1 kr=1
        0 <-> A ; kf=1 kr=1
    """,
    # reversible triangle with an irreversible cycle preference: complex
    # balanced (deficiency zero) but not detailed balanced
    "rev_triangle_skew": """
        species A B
        A <-> B ; kf=2 kr=1
        B <-> 0 ; kf=2 kr=1
        0 <-> A ; kf=2 kr=1
    """,
    # two directed triangles sharing the vertex (0,0)
    "two_triangles_vertex": """
        species A B
        0 -> A ; k=1
        A -> B ; k=2
        B -> 0 ; k=1
        0 -> A + B ; k=1
        A + B -> 2 A ; k=1
        2 A -> 0 ; k=3
    """,
    # two directed triangles sharing the edge A -> B: the shortest-path
    # cover traverses that edge twice (multiplicity 2)
    "two_triangles_edge": """
        species A B
        0 -> A ; k=1
        A -> B ; k=1
        B -> 0 ; k=1
        B -> A + B ; k=2
        A + B -> A ; k=2
    """,
    # directed square
    "square": """
        species A B
        A -> A + B ; k=1
        A + B -> B ; k=2
        B -> 0 ; k=1
        0 -> A ; k=2
    """,
    # two independent reversible pairs, four species, two linkage classes
    "two_pairs_4sp": """
        species A B C D
        A <-> B ; kf=1 kr=2
        C <-> D ; kf=3 kr=4
    """,
    # reversible 3-species cycle with symmetric rates: detailed balanced
    "rev_cycle_3sp_db": """
        species A B C
        A <-> B ; kf=1 kr=1
        B <-> C ; kf=1 kr=1
        C <-> A ; kf=1 kr=1
    """,
    # association/dissociation pair in three species
    "pair_3sp": """
        species A B C
        B + C <-> 2 A ; kf=2 kr=0.25
    """,
    # power-law pair with non-integer exponent vectors
    "powerlaw_pair": """
        species A B
        complex (0.5, 1) <-> complex (1.5, 0) ; kf=1.3 kr=0.7
    """,
    # directed 4-cycle in four species
    "cycle_4sp": """
        species A B C D
        A -> B ; k=1
        B -> C ; k=2
        C -> D ; k=1
        D -> A ; k=2
    """,
    # one-species chain 0 <-> A <-> 2A with rates satisfying the cycle
    # condition, so a vertex-balanced state exists
    "chain_1sp_balanced": """
        species A
        0 <-> A ; kf=1 kr=1
        A <-> 2 A ; kf=1 kr=1
    """,
    # same chain with the condition broken: no vertex-balanced state
    "chain_1sp_unbalanced": """
        species A
        0 <-> A ; kf=1 kr=1
        A <-> 2 A ; kf=1 kr=2
    """,
}

EMBEDDING_CORPUS: tuple[str, ...] = (
    "rev_pair",
    "triangle",
    "rev_triangle_db",
    "rev_triangle_skew",
    "two_triangles_vertex",
    "two_triangles_edge",
    "square",
    "two_pairs_4sp",
    "rev_cycle_3sp_db",
    "pair_3sp",
    "powerlaw_pair",
    "cycle_4sp",
)


def load(name: str) -> ReactionNetwork:
    return parse_network(NETWORK_TEXTS[name])
