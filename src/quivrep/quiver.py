"""Acyclic quivers, their bilinear forms, sink/source mutation, and Dynkin
recognition.

A quiver is a finite directed multigraph on vertices 1..n with no loops and
no oriented cycles.  Arrows are an ordered tuple of ``(source, target)``
pairs; the position of a pair is the arrow's id, so parallel arrows stay
distinct records.  Vectors are plain tuples of Python integers, which keeps
every computation exact regardless of how large root coordinates grow.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    CyclicQuiverError,
    DimensionMismatchError,
    InputFormatError,
    InvalidParameterError,
    MutationError,
    ResourceGuardError,
    UnsupportedScopeError,
    VertexRangeError,
)

IntVector = tuple[int, ...]
# Row-major; over F_p (see quivrep.linalg) the entries lie in 0..p-1.
Matrix = tuple[tuple[int, ...], ...]


class VertexKind(Enum):
    SINK = "sink"
    SOURCE = "source"
    NEITHER = "neither"
    ISOLATED = "isolated"


def _toposort(n: int, arrows: tuple[tuple[int, int], ...]) -> list[int] | None:
    """Topological order of 1..n, the smallest ready vertex first, or None if
    the arrows contain a cycle."""
    indeg = [0] * (n + 1)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for s, t in arrows:
        indeg[t] += 1
        out[s].append(t)
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for t in out[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(ready, t)
    return order if len(order) == n else None


# Quiver refuses more vertices than this before it sizes any list;
# quiver_from_json tags the same refusal as an input-format error.
VERTEX_GUARD = 1000


@dataclass(frozen=True, eq=False)
class Quiver:
    """Directed multigraph on vertices 1..n, validated acyclic at construction."""

    n: int
    arrows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        arrows = tuple((int(s), int(t)) for s, t in self.arrows)
        object.__setattr__(self, "arrows", arrows)
        if self.n < 0:
            raise VertexRangeError("vertex count must be nonnegative")
        if self.n > VERTEX_GUARD:
            raise ResourceGuardError(f"{self.n} vertices exceed the guard {VERTEX_GUARD}")
        for s, t in arrows:
            if not (1 <= s <= self.n and 1 <= t <= self.n):
                raise VertexRangeError(f"arrow ({s},{t}) out of range 1..{self.n}")
            if s == t:
                raise CyclicQuiverError(f"loop at vertex {s}")
        if _toposort(self.n, arrows) is None:
            raise CyclicQuiverError("quiver has an oriented cycle")

    def __eq__(self, other: object) -> bool:  # the dataclass's, on (n, arrows), but identity first
        if self is other:
            return True
        return (self.n, self.arrows) == (other.n, other.arrows) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.arrows))

    def in_arrows(self, i: int) -> tuple[tuple[int, int], ...]:
        """(arrow id, source) for every arrow pointing at vertex i, by id."""
        return tuple((a, s) for a, (s, t) in enumerate(self.arrows) if t == i)

    def out_arrows(self, i: int) -> tuple[tuple[int, int], ...]:
        """(arrow id, target) for every arrow leaving vertex i, by id."""
        return tuple((a, t) for a, (s, t) in enumerate(self.arrows) if s == i)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Entry i - 1 lists (j, a_ij) for every neighbour j of vertex i, by
        increasing j, where a_ij counts the arrows between i and j in either
        direction, so a_ij = -(e_i, e_j) for i != j."""
        counts: list[dict[int, int]] = [{} for _ in range(self.n)]
        for s, t in self.arrows:
            counts[s - 1][t] = counts[s - 1].get(t, 0) + 1
            counts[t - 1][s] = counts[t - 1].get(s, 0) + 1
        return tuple(tuple(sorted(c.items())) for c in counts)

    @cached_property
    def dynkin(self) -> DynkinType:
        """The Dynkin classification of the underlying graph, made once per
        quiver object."""
        return dynkin_type(self)

    @cached_property
    def is_dynkin(self) -> bool:
        """Whether every component of the underlying graph is a Dynkin
        diagram, decided once per quiver object."""
        return self.dynkin.is_dynkin

    @cached_property
    def coxeter_word(self) -> tuple[int, ...]:
        """The Coxeter word of the orientation, a topological order of the
        reversed arrows (see weyl.coxeter_of_quiver), sorted once per quiver
        object."""
        return tuple(_toposort(self.n, tuple((t, s) for s, t in self.arrows)))

    @cached_property
    def derived(self) -> dict:
        """What other modules derive from this quiver object, kept for its
        life: weyl's Dynkin packing under "packing" and root record under
        "roots", and linrep's DynkinCategory over each field under its FieldSpec."""
        return {}


# orientations refuses more orientations than this before it builds a quiver:
# linear A17's 65,536 take about 1.7 s and 98 MB peak RSS on a 2-core Xeon.
ORIENTATION_GUARD = 2**16


def orientations(n: int, edges: tuple[tuple[int, int], ...]) -> list[Quiver]:
    """All 2^len(edges) orientations of a graph on vertices 1..n.  The first
    points every edge (s, t) as s -> t; later ones reverse edges in binary
    counting order, the last edge flipping fastest."""
    if 2 ** len(edges) > ORIENTATION_GUARD:
        raise ResourceGuardError(f"2^{len(edges)} orientations exceed the guard {ORIENTATION_GUARD}")
    return [
        Quiver(n, tuple((t, s) if flip else (s, t) for flip, (s, t) in zip(flips, edges)))
        for flips in itertools.product((False, True), repeat=len(edges))
    ]


def _dynkin_label(label: str) -> tuple[str, int]:
    """Family letter and rank of a label as _classify_component spells it:
    A_n (n >= 1), D_n (n >= 4) or E6-E8, of rank at most VERTEX_GUARD."""
    match = re.fullmatch(r"([ADE])([1-9][0-9]{0,3})", label)
    if match:
        kind, n = match[1], int(match[2])
        if {"A": 1, "D": 4, "E": 6}[kind] <= n <= (8 if kind == "E" else VERTEX_GUARD):
            return kind, n
    raise InvalidParameterError(f"not a Dynkin type label: {label!r}")


def dynkin_graph(label: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The graph (n, edges) of a connected Dynkin type, which
    _classify_component reads back as ``label``: the path 1 - ... - n for
    A_n, and for D_n and E_n the path 1 - ... - (n-1) with vertex n joined to
    n-2 (D) or to 3 (E).  ``orientations(*dynkin_graph(label))`` lists its
    quivers."""
    kind, n = _dynkin_label(label)
    if kind == "A":
        return n, tuple((k, k + 1) for k in range(1, n))
    return n, tuple((k, k + 1) for k in range(1, n - 1)) + ((n - 2 if kind == "D" else 3, n),)


def check_vertex(q: Quiver, i: int) -> None:
    if not (1 <= i <= q.n):
        raise VertexRangeError(f"vertex {i} out of range 1..{q.n}")


def check_vector(q: Quiver, v: IntVector) -> None:
    if len(v) != q.n:
        raise DimensionMismatchError(f"vector of length {len(v)} on a quiver with {q.n} vertices")


def unit_vector(n: int, i: int) -> IntVector:
    """The standard basis vector e_i in Z^n."""
    return tuple(1 if k == i else 0 for k in range(1, n + 1))


def euler_form(q: Quiver, beta: IntVector, gamma: IntVector) -> int:
    """Bilinear form <beta, gamma> = sum_i b_i g_i - sum_{a: i->j} b_i g_j.

    Parallel arrows each contribute their own term, so the form sees the
    full multigraph.  Orientation-sensitive.
    """
    check_vector(q, beta)
    check_vector(q, gamma)
    total = sum(b * g for b, g in zip(beta, gamma))
    for s, t in q.arrows:
        total -= beta[s - 1] * gamma[t - 1]
    return total


def sym_form(q: Quiver, beta: IntVector, gamma: IntVector) -> int:
    """Symmetrized form (beta, gamma) = <beta, gamma> + <gamma, beta>.

    Depends only on the underlying graph, not on arrow directions.
    """
    return euler_form(q, beta, gamma) + euler_form(q, gamma, beta)


def vertex_kind(q: Quiver, i: int) -> VertexKind:
    check_vertex(q, i)
    has_in, has_out = bool(q.in_arrows(i)), bool(q.out_arrows(i))
    if has_in and has_out:
        return VertexKind.NEITHER
    if has_in:
        return VertexKind.SINK
    if has_out:
        return VertexKind.SOURCE
    return VertexKind.ISOLATED


def mutate_at(q: Quiver, i: int) -> Quiver:
    """Reverse all arrows incident to i.  Admissible only at a sink, source,
    or isolated vertex; elsewhere the representation-theoretic mutation is a
    different (unsupported) operation."""
    kind = vertex_kind(q, i)
    if kind is VertexKind.NEITHER:
        raise MutationError(f"vertex {i} is neither a sink nor a source")
    arrows = tuple((t, s) if s == i or t == i else (s, t) for s, t in q.arrows)
    return Quiver(q.n, arrows)


@dataclass(frozen=True)
class DynkinType:
    """Connected-component classification of the underlying graph.

    Component labels are "A<m>", "D<m>", "E6"/"E7"/"E8", or "NotDynkin",
    ordered by each component's smallest vertex.
    """

    components: tuple[str, ...]

    @property
    def is_dynkin(self) -> bool:
        return all(c != "NotDynkin" for c in self.components)

    @property
    def positive_root_count(self) -> int:
        """Number of positive roots of a Dynkin type (see _counts)."""
        if not self.is_dynkin:
            raise UnsupportedScopeError("only a Dynkin type has finitely many roots")
        return sum(_counts(label)[0] for label in self.components)

    @property
    def coxeter_catalan(self) -> int:
        """Number of c-sortable elements of a Dynkin type, for any Coxeter
        element c: the product over components (see _counts)."""
        if not self.is_dynkin:
            raise UnsupportedScopeError("only a Dynkin type has finitely many sortable elements")
        return math.prod(_counts(label)[1] for label in self.components)


def _counts(label: str) -> tuple[int, int]:
    """(positive roots, c-sortable elements) of a connected Dynkin type: n h / 2
    roots for rank n and Coxeter number h, and C(2n+2, n+1)/(n+2) sortables for
    A_n, (3n-2)/n C(2n-2, n-1) for D_n, and 833, 4160, 25080 for E6-E8."""
    kind, n = _dynkin_label(label)
    if kind == "A":
        return n * (n + 1) // 2, math.comb(2 * n + 2, n + 1) // (n + 2)
    if kind == "D":
        return n * (n - 1), (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
    return {6: (36, 833), 7: (63, 4160), 8: (120, 25080)}[n]


def _graph_components(q: Quiver, vertices: Iterable[int]) -> list[list[int]]:
    """Connected components of the underlying graph on the given vertices
    (edges between them only), each sorted, by increasing smallest vertex."""
    left, comps = set(vertices), []
    for start in sorted(left):
        if start in left:
            left.remove(start)
            comp, stack = [], [start]
            while stack:
                comp.append(stack.pop())
                reached = [u for u, _ in q.adjacency[comp[-1] - 1] if u in left]
                left.difference_update(reached)
                stack += reached
            comps.append(sorted(comp))
    return comps


def _classify_component(q: Quiver, verts: list[int]) -> str:
    """A Dynkin diagram is a simple tree, and a connected multigraph on m
    vertices is one exactly when its degrees sum to 2m - 2.  A tree with no
    vertex of degree 3 is a path; one with a single such vertex is D or E by
    the lengths of the legs left when that vertex is taken away."""
    degrees = [sum(a for _, a in q.adjacency[v - 1]) for v in verts]
    if sum(degrees) != 2 * len(verts) - 2 or max(degrees) > 3 or degrees.count(3) > 1:
        return "NotDynkin"
    if 3 not in degrees:
        return f"A{len(verts)}"
    branch = verts[degrees.index(3)]
    legs = sorted(map(len, _graph_components(q, set(verts) - {branch})))
    if legs[:2] == [1, 1]:
        return f"D{legs[2] + 3}"
    if legs[:2] == [1, 2] and legs[2] <= 4:
        return f"E{legs[2] + 4}"
    return "NotDynkin"


def dynkin_type(q: Quiver) -> DynkinType:
    comps = _graph_components(q, range(1, q.n + 1))
    return DynkinType(tuple(_classify_component(q, comp) for comp in comps))


def quiver_to_json(q: Quiver) -> dict:
    return {"n": q.n, "arrows": [[s, t] for s, t in q.arrows]}


def json_int(value: object) -> int:
    """A JSON integer as read by ``json.load``.  Floats, strings and booleans
    are refused, not coerced: ``int()`` would read 1.5 as 1 and " 2" as 2."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"expected a JSON integer, got {type(value).__name__}")
    return value


def quiver_from_json(data: object) -> Quiver:
    if not isinstance(data, dict) or "n" not in data or "arrows" not in data:
        raise InputFormatError('quiver JSON must be {"n": ..., "arrows": [[s, t], ...]}')
    try:
        n = json_int(data["n"])
        arrows = tuple((json_int(s), json_int(t)) for s, t in data["arrows"])
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed quiver JSON: {exc}") from exc
    if n > VERTEX_GUARD:
        raise InputFormatError(f"{n} vertices exceed the guard {VERTEX_GUARD}")
    return Quiver(n, arrows)
