"""Acyclic quivers, their bilinear forms, sink/source mutation, and Dynkin
recognition.

A quiver is a finite directed multigraph on vertices 1..n with no loops and
no oriented cycles.  Arrows are an ordered tuple of ``(source, target)``
pairs; the position of a pair is the arrow's id, so parallel arrows stay
distinct records.  Vectors are plain tuples of Python integers, which keeps
every computation exact regardless of how large root coordinates grow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CyclicQuiverError,
    DimensionMismatchError,
    InputFormatError,
    MutationError,
    VertexRangeError,
)

IntVector = tuple[int, ...]


class VertexKind(Enum):
    SINK = "sink"
    SOURCE = "source"
    NEITHER = "neither"
    ISOLATED = "isolated"


def _toposort(n: int, arrows: tuple[tuple[int, int], ...]) -> list[int] | None:
    """Topological order of 1..n, or None if the arrows contain a cycle."""
    indeg = [0] * (n + 1)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for s, t in arrows:
        indeg[t] += 1
        out[s].append(t)
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for t in out[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return order if len(order) == n else None


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
        out = set()
        for s, t in self.arrows:
            if s == i:
                out.add(t)
            elif t == i:
                out.add(s)
        return frozenset(out)


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


def drop_coordinate(v: IntVector, i: int) -> IntVector:
    return v[: i - 1] + v[i:]


def insert_coordinate(v: IntVector, i: int, value: int = 0) -> IntVector:
    return v[: i - 1] + (value,) + v[i - 1 :]


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


def delete_vertex(q: Quiver, i: int) -> Quiver:
    """Remove vertex i and its incident arrows; vertices above i shift down."""
    check_vertex(q, i)

    def renum(j: int) -> int:
        return j if j < i else j - 1

    arrows = tuple((renum(s), renum(t)) for s, t in q.arrows if s != i and t != i)
    return Quiver(q.n - 1, arrows)


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


def _graph_components(q: Quiver) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(1, q.n + 1):
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in q.neighbors(v):
                if u not in seen:
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
    return DynkinType(tuple(_classify_component(q, comp) for comp in _graph_components(q)))


def quiver_to_json(q: Quiver) -> dict:
    return {"n": q.n, "arrows": [[s, t] for s, t in q.arrows]}


def quiver_from_json(data: object) -> Quiver:
    if not isinstance(data, dict) or "n" not in data or "arrows" not in data:
        raise InputFormatError('quiver JSON must be {"n": ..., "arrows": [[s, t], ...]}')
    try:
        n = int(data["n"])
        arrows = tuple((int(s), int(t)) for s, t in data["arrows"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed quiver JSON: {exc}") from exc
    return Quiver(n, arrows)
