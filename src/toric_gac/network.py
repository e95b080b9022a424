"""Reaction networks as geometrically embedded digraphs.

A network is a finite directed graph whose vertices are points of R^n
(n = number of species).  Each vertex holds the exponent vector of a
mass-action monomial; each directed edge carries a positive rate.
Exponent vectors are arbitrary reals so power-law kinetics fit the same
container.

Text format::

    species A B C          # coordinate order is the header order
    A -> B ; k=1.5
    B + C <-> 2 A ; kf=2 kr=0.25
    complex (0.5, 1, 0) -> complex (0, 0, 1) ; k=3

``#`` starts a comment.  ``<->`` expands to two edges (forward first).
Complexes are deduplicated by exact vector equality.  Field, balance and
stoichiometry code reads a network's edge data from one cached array view,
``ReactionNetwork.kinetics``, whose first access imports numpy; parsing, the
graph routines and the exact stoichiometric rank run without numpy.
``_bareiss`` is the package's one exact integer elimination: it gives the
stoichiometric rank here and the matrix-tree minors in ``equilibria``.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property


class InputError(ValueError):
    """Base of every error the input causes: the command line exits 2."""


class CheckFailed(RuntimeError):
    """Base of every error a failed check raises: the command line exits 1."""


class NetworkParseError(InputError):
    """Malformed network text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownSpeciesError(NetworkParseError):
    pass


class NonpositiveRateError(NetworkParseError):
    pass


class DuplicateSpeciesError(NetworkParseError):
    pass


class NonFiniteValueError(NetworkParseError):
    """A rate, coefficient or coordinate too large for a float."""


class NotWeaklyReversible(CheckFailed, ValueError):
    """Raised when an operation needs every edge inside a strongly
    connected component and the network does not provide that."""


@dataclass(frozen=True)
class Complex:
    """A vertex: an exponent vector with a stable integer id."""

    id: int
    y: tuple[float, ...]


@dataclass(frozen=True)
class Reaction:
    """Directed edge ``source -> target`` (complex ids) with rate > 0."""

    source: int
    target: int
    rate: float

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("reaction source and target must differ")
        if not 0.0 < self.rate < math.inf:
            raise ValueError(
                f"rate must be positive and finite, got {self.rate}")


@dataclass(frozen=True, eq=False)
class _Kinetics:
    """Edge data of a network as read-only arrays, rows in edge order."""

    Y: np.ndarray       # (m, n) exponent vectors of the complexes
    source: np.ndarray  # (E,) source complex ids
    target: np.ndarray  # (E,) target complex ids
    Ys: np.ndarray      # (E, n) source exponents Y[source]
    D: np.ndarray       # (E, n) reaction vectors Y[target] - Ys
    k: np.ndarray       # (E,) stored rates


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    complexes: tuple[Complex, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        n = len(self.species)
        seen: dict[tuple[float, ...], int] = {}
        for i, c in enumerate(self.complexes):
            if c.id != i:
                raise ValueError("complex ids must equal their positions")
            if len(c.y) != n:
                raise ValueError("complex dimension does not match species count")
            if c.y in seen:
                raise ValueError(f"complexes {seen[c.y]} and {i} share one vector")
            seen[c.y] = i
        m = len(self.complexes)
        for r in self.reactions:
            if not (0 <= r.source < m and 0 <= r.target < m):
                raise ValueError("reaction endpoint out of range")

    # -- convenience views ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def m(self) -> int:
        return len(self.complexes)

    @cached_property  # the dataclass has no slots, so the cache can live in __dict__
    def kinetics(self) -> _Kinetics:
        """Edge data as read-only arrays, built on first access."""
        import numpy as np
        Y = np.array([c.y for c in self.complexes], float).reshape(self.m, self.n)
        source = np.array([r.source for r in self.reactions], dtype=np.intp)
        target = np.array([r.target for r in self.reactions], dtype=np.intp)
        k = np.array([r.rate for r in self.reactions], dtype=float)
        Ys = Y[source]
        arrays = (Y, source, target, Ys, Y[target] - Ys, k)
        for a in arrays:
            a.flags.writeable = False
        return _Kinetics(*arrays)

    def edge_list(self) -> list[tuple[int, int]]:
        return [(r.source, r.target) for r in self.reactions]

    def out_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.m)]
        for r in self.reactions:
            adj[r.source].append(r.target)
        return adj


@dataclass(frozen=True)
class CycleCover:
    """Directed cycles (vertex-id sequences, closing edge implied) whose
    union of edges is the whole edge set; ``multiplicity`` counts how many
    cycles traverse each edge."""

    cycles: tuple[tuple[int, ...], ...]
    multiplicity: dict[tuple[int, int], int]


# ---------------------------------------------------------------------------
# parsing

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UNSIGNED_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_SIGNED_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class _LineScanner:
    """Tokenizer for one logical line; keeps 1-based column positions."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    @property
    def column(self) -> int:
        return self.pos + 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def error(self, message: str, cls=NetworkParseError):
        raise cls(message, self.lineno, self.column)

    def value(self, tok: str) -> float:
        """The number token just read, which must fit a float."""
        if math.isinf(val := float(tok)):
            raise NonFiniteValueError(f"value {tok} overflows a float",
                                      self.lineno, self.pos - len(tok) + 1)
        return val

    def try_literal(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect_literal(self, lit: str, what: str):
        if not self.try_literal(lit):
            self.error(f"expected {what}")

    def try_regex(self, rx: re.Pattern) -> str | None:
        self.skip_ws()
        m = rx.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)

    def at_end_of_side(self) -> bool:
        save = self.pos
        self.skip_ws()
        ok = (self.pos >= len(self.text)
              or self.text.startswith(("->", "<->", ";"), self.pos))
        self.pos = save
        return ok


def _parse_side(sc: _LineScanner, species_index: dict[str, int]) -> tuple[float, ...]:
    """One side of a reaction: ``0``, a formal sum, or a raw vector."""
    n = len(species_index)
    sc.skip_ws()
    start_col = sc.column
    if sc.try_literal("complex"):
        sc.expect_literal("(", "'(' after 'complex'")
        coords = []
        while True:
            sc.skip_ws()
            tok = sc.try_regex(_SIGNED_RE)
            if tok is None:
                sc.error("expected a coordinate value")
            coords.append(sc.value(tok))
            if sc.try_literal(","):
                continue
            sc.expect_literal(")", "',' or ')'")
            break
        if len(coords) != n:
            raise NetworkParseError(
                f"complex has {len(coords)} coordinates, expected {n}",
                sc.lineno, start_col)
        return tuple(coords)

    y = [0.0] * n
    used: set[int] = set()
    first = True
    while True:
        sc.skip_ws()
        term_col = sc.column
        num = sc.try_regex(_UNSIGNED_RE)
        coef = None if num is None else sc.value(num)
        if coef == 0.0 and first and sc.at_end_of_side():
            return tuple(y)  # bare zero complex
        name = None
        if num is not None:
            sc.try_literal("*")
            name = sc.try_regex(_NAME_RE)
            if name is None:
                sc.error("expected species name after coefficient")
        else:
            name = sc.try_regex(_NAME_RE)
            if name is None:
                sc.error("expected a species term" if first else
                         "expected a species term after '+'")
        if name not in species_index:
            raise UnknownSpeciesError(f"unknown species '{name}'",
                                      sc.lineno, term_col)
        idx = species_index[name]
        if idx in used:
            raise NetworkParseError(
                f"species '{name}' appears twice in one complex",
                sc.lineno, term_col)
        used.add(idx)
        y[idx] = coef if coef is not None else 1.0
        first = False
        if not sc.try_literal("+"):
            return tuple(y)


def _parse_rate(sc: _LineScanner, key: str) -> float:
    sc.skip_ws()
    key_col = sc.column
    got = sc.try_regex(_NAME_RE)
    if got != key:
        raise NetworkParseError(f"expected '{key}=...'", sc.lineno, key_col)
    sc.expect_literal("=", f"'=' after '{key}'")
    sc.skip_ws()
    val_col = sc.column
    tok = sc.try_regex(_SIGNED_RE)
    if tok is None:
        sc.error(f"expected a numeric value for '{key}'")
    val = sc.value(tok)
    if not val > 0.0:
        raise NonpositiveRateError(f"rate '{key}' must be positive, got {tok}",
                                   sc.lineno, val_col)
    return val


def parse_network(text: str) -> ReactionNetwork:
    """Parse the text format described in the module docstring.

    Raises :class:`NetworkParseError` (or a subclass) with 1-based line and
    column on malformed input, unknown species, nonpositive rates, numbers
    that overflow a float, or duplicated species declarations.
    """
    species: list[str] = []
    species_index: dict[str, int] = {}
    complexes: list[Complex] = []
    key_to_id: dict[tuple[float, ...], int] = {}
    reactions: list[Reaction] = []
    saw_header = False

    def intern_complex(y: tuple[float, ...]) -> int:
        cid = key_to_id.get(y)
        if cid is None:
            cid = len(complexes)
            complexes.append(Complex(cid, y))
            key_to_id[y] = cid
        return cid

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        sc = _LineScanner(line, lineno)
        if not saw_header:
            sc.skip_ws()
            word = sc.try_regex(_NAME_RE)
            if word != "species":
                sc.error("first statement must be a 'species' header")
            while not sc.at_end():
                col = sc.column
                name = sc.try_regex(_NAME_RE)
                if name is None:
                    sc.error("expected a species name")
                if name in species_index:
                    raise DuplicateSpeciesError(
                        f"species '{name}' declared twice", lineno, col)
                species_index[name] = len(species)
                species.append(name)
            if not species:
                sc.error("species header declares no species")
            saw_header = True
            continue

        sc.skip_ws()
        word_save = sc.pos
        word = sc.try_regex(_NAME_RE)
        if word == "species":
            raise DuplicateSpeciesError("second 'species' header", lineno, 1)
        sc.pos = word_save

        lhs = _parse_side(sc, species_index)
        reversible = sc.try_literal("<->")
        if not reversible:
            sc.expect_literal("->", "'->' or '<->'")
        rhs = _parse_side(sc, species_index)
        if lhs == rhs:
            raise NetworkParseError("reaction source equals target",
                                    lineno, 1)
        sc.expect_literal(";", "';' before the rate assignment")
        src = intern_complex(lhs)
        tgt = intern_complex(rhs)
        if reversible:
            kf = _parse_rate(sc, "kf")
            kr = _parse_rate(sc, "kr")
            reactions.append(Reaction(src, tgt, kf))
            reactions.append(Reaction(tgt, src, kr))
        else:
            k = _parse_rate(sc, "k")
            reactions.append(Reaction(src, tgt, k))
        if not sc.at_end():
            sc.error("unexpected trailing text")

    if not saw_header:
        raise NetworkParseError("empty input: no 'species' header", 1, 1)
    return ReactionNetwork(tuple(species), tuple(complexes), tuple(reactions))


# ---------------------------------------------------------------------------
# graph structure

def _shortest_path(adj: list[list[int]], src: int, dst: int) -> list[int] | None:
    """BFS-shortest path src -> dst as a vertex list, or None when dst is
    unreachable; ties go by edge order, so the path is deterministic."""
    prev: dict[int, int] = {src: -1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = [u]
            while prev[path[-1]] != -1:
                path.append(prev[path[-1]])
            return path[::-1]
        for v in adj[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    return None


def linkage_classes(net: ReactionNetwork) -> list[list[int]]:
    """Weakly connected components, each a sorted list of complex ids.
    An isolated complex forms its own class."""
    parent = list(range(net.m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r in net.reactions:
        ra, rb = find(r.source), find(r.target)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for v in range(net.m):
        groups.setdefault(find(v), []).append(v)
    return [sorted(groups[k]) for k in sorted(groups)]


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True iff every edge u -> v has a path back v -> u, i.e. every edge
    lies inside a strongly connected component."""
    adj = net.out_neighbors()
    return all(_shortest_path(adj, r.target, r.source) is not None
               for r in net.reactions)


def is_reversible(net: ReactionNetwork) -> bool:
    edges = set(net.edge_list())
    return all((b, a) in edges for (a, b) in edges)


def _decimal(v: float) -> tuple[int, int]:
    """(d, e) with d * 10**e exactly the decimal that repr(float(v)) spells."""
    mant, _, exp = repr(float(v)).partition("e")
    whole, _, frac = mant.partition(".")
    return int(whole + frac), int(exp or 0) - len(frac)


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of integer rows: (rank, last
    pivot).  Each column pivots on the first remaining row nonzero there,
    and every division is exact.  When the first remaining row always
    pivots, as on a nonsingular M-matrix, the last pivot of a square
    matrix is its determinant, sign included; no rows give (0, 1)."""
    prev, left = 1, rows
    for j in range(len(rows[0]) if rows else 0):  # pivot rows leave ``left``
        if (p := next((r for r in left if r[j]), None)) is not None:
            left = [[(a * p[j] - b * r[j]) // prev for a, b in zip(r, p)]
                    for r in left if r is not p]
            prev = p[j]
    return len(rows) - len(left), prev


def stoichiometric_rank(net: ReactionNetwork) -> int:
    """dim span{y_target - y_source}, exact: :func:`_bareiss` on the
    decimals the text gave (coordinate reprs) scaled to integers; cached."""
    if (s := net.__dict__.get("_rank")) is None:
        dec = [[_decimal(v) for v in c.y] for c in net.complexes]
        low = min((e for y in dec for _, e in y), default=0)
        y = [[d * 10 ** (e - low) for d, e in row] for row in dec]
        s = _bareiss([[a - b for a, b in zip(y[r.target], y[r.source])]
                      for r in net.reactions])[0]
        net.__dict__["_rank"] = s  # no slots: cached as ``kinetics`` is
    return s


def stoichiometric_subspace(net: ReactionNetwork) -> tuple[np.ndarray, int]:
    """Orthonormal basis (n, s) of span{y_target - y_source}, the first s
    right singular vectors, with s from :func:`stoichiometric_rank`."""
    import numpy as np
    s = stoichiometric_rank(net)
    vt = np.linalg.svd(net.kinetics.D, full_matrices=False)[2]
    return vt[:s].T.copy(), s


def deficiency(net: ReactionNetwork) -> int:
    """m - (number of linkage classes) - dim(stoichiometric subspace)."""
    return net.m - len(linkage_classes(net)) - stoichiometric_rank(net)


def cycle_cover(net: ReactionNetwork) -> CycleCover:
    """Cover every edge by a directed cycle: for each edge (u, v) not yet
    covered, close it with a BFS-shortest path v -> u.  Every vertex on
    such a path lies in the strongly connected component of u and v.
    Cycles may share edges; the multiplicity map counts the sharing.

    Raises :class:`NotWeaklyReversible` at the first edge, in edge order,
    with no path back; a covered edge always has one.
    """
    adj = net.out_neighbors()
    cycles: list[tuple[int, ...]] = []
    multiplicity: dict[tuple[int, int], int] = {}
    for r in net.reactions:
        edge = (r.source, r.target)
        if edge in multiplicity:
            continue
        back = _shortest_path(adj, r.target, r.source)
        if back is None:
            raise NotWeaklyReversible(
                f"edge {r.source}->{r.target} leaves its strongly connected "
                "component")
        cyc = tuple([r.source] + back[:-1])
        cycles.append(cyc)
        for i in range(len(cyc)):
            e = (cyc[i], cyc[(i + 1) % len(cyc)])
            multiplicity[e] = multiplicity.get(e, 0) + 1
    return CycleCover(tuple(cycles), multiplicity)
