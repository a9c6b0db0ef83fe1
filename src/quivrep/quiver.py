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
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    CyclicQuiverError,
    DimensionMismatchError,
    InputFormatError,
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


@dataclass(frozen=True)
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

    def in_arrows(self, i: int) -> tuple[tuple[int, int], ...]:
        """(arrow id, source) for every arrow pointing at vertex i, by id."""
        return tuple((a, s) for a, (s, t) in enumerate(self.arrows) if t == i)

    def out_arrows(self, i: int) -> tuple[tuple[int, int], ...]:
        """(arrow id, target) for every arrow leaving vertex i, by id."""
        return tuple((a, t) for a, (s, t) in enumerate(self.arrows) if s == i)

    def neighbors(self, i: int) -> frozenset[int]:
        """Vertices adjacent to i in the underlying graph."""
        check_vertex(self, i)
        return frozenset(j for j, _ in self.adjacency[i - 1])

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
        life: weyl's Dynkin packing under "packing" and linrep's
        DynkinCategory over each field under its FieldSpec."""
        return {}


def orientations(n: int, edges: tuple[tuple[int, int], ...]) -> list[Quiver]:
    """All 2^len(edges) orientations of a graph on vertices 1..n.  The first
    points every edge (s, t) as s -> t; later ones reverse edges in binary
    counting order, the last edge flipping fastest."""
    return [
        Quiver(n, tuple((t, s) if flip else (s, t) for flip, (s, t) in zip(flips, edges)))
        for flips in itertools.product((False, True), repeat=len(edges))
    ]


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
    has_in = any(t == i for _, t in q.arrows)
    has_out = any(s == i for s, _ in q.arrows)
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
        """Number of positive roots of a Dynkin type: n h / 2 for each
        component of rank n and Coxeter number h."""
        if not self.is_dynkin:
            raise UnsupportedScopeError("only a Dynkin type has finitely many roots")
        total = 0
        for label in self.components:
            kind, n = label[0], int(label[1:])
            h = n + 1 if kind == "A" else 2 * n - 2 if kind == "D" else {6: 12, 7: 18, 8: 30}[n]
            total += n * h // 2
        return total

    @property
    def coxeter_catalan(self) -> int:
        """Number of c-sortable elements of a Dynkin type, for any Coxeter
        element c: the product over components of C(2n+2, n+1)/(n+2) for
        A_n, (3n-2)/n C(2n-2, n-1) for D_n, and 833, 4160, 25080 for E6-E8."""
        if not self.is_dynkin:
            raise UnsupportedScopeError("only a Dynkin type has finitely many sortable elements")
        total = 1
        for label in self.components:
            kind, n = label[0], int(label[1:])
            if kind == "A":
                total *= math.comb(2 * n + 2, n + 1) // (n + 2)
            elif kind == "D":
                total *= (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
            else:
                total *= {6: 833, 7: 4160, 8: 25080}[n]
        return total


def _graph_components(q: Quiver, vertices: Iterable[int]) -> list[list[int]]:
    """Connected components of the underlying graph on the given vertices
    (edges between them only), each sorted, by increasing smallest vertex."""
    vertices = set(vertices)
    seen: set[int] = set()
    comps = []
    for start in sorted(vertices):
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in q.neighbors(v):
                if u in vertices and u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _classify_component(q: Quiver, verts: list[int]) -> str:
    vset = set(verts)
    edges = [(s, t) for s, t in q.arrows if s in vset]
    m = len(verts)
    # A Dynkin diagram is a simple tree; a connected multigraph on m vertices
    # with exactly m-1 arrows cannot contain a parallel pair.
    if len(edges) != m - 1:
        return "NotDynkin"
    deg = {v: 0 for v in verts}
    for s, t in edges:
        deg[s] += 1
        deg[t] += 1
    if any(d > 3 for d in deg.values()):
        return "NotDynkin"
    branch = [v for v in verts if deg[v] == 3]
    if not branch:
        return f"A{m}"
    if len(branch) > 1:
        return "NotDynkin"
    b = branch[0]
    legs = []
    for first in sorted(q.neighbors(b)):
        length = 1
        prev, cur = b, first
        while deg[cur] == 2:
            nxt = next(u for u in q.neighbors(cur) if u != prev)
            prev, cur = cur, nxt
            length += 1
        legs.append(length)
    legs.sort()
    if legs[:2] == [1, 1]:
        return f"D{legs[2] + 3}"
    if legs[0] == 1 and legs[1] == 2 and legs[2] in (2, 3, 4):
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
