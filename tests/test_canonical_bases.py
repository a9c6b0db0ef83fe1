"""Byte-stability pins for the constructions that read canonical echelon
bases: kernels and their coordinates (reflect_plus, reflect_plus_mor, the
Hom basis), cokernel projections (reflect_minus, hence every
indecomposable), and the Hom-element enumeration behind is_indecomposable
and the injective-map leg.  The digests were recorded before these
functions were rewritten to read the bases directly, so any drift in a
single entry fails here.  One more digest pins the whole output of
verify_bijection, recorded before tfc_of_sortable certified the word it
is handed and before class members were checked by a root lookup.
"""

import hashlib
import itertools
import json
import random

import pytest

from quivrep import linalg
from quivrep.errors import ResourceGuardError
from quivrep.linrep import (
    F2,
    F3,
    F5,
    INDEC_ENUM_GUARD,
    DynkinCategory,
    Morphism,
    decompose,
    direct_sum,
    enumerate_extensions,
    enumerate_subreps,
    ext1_dim,
    hom_basis,
    hom_dim,
    is_indecomposable,
    reflect_minus,
    reflect_plus,
    reflect_plus_mor,
    rep_to_json,
    strip_simple_summands,
)
from quivrep.linrep import _blocks, _embeds, _hom_kernel
from quivrep.quiver import Quiver, VertexKind, dynkin_graph, mutate_at, orientations, vertex_kind
from quivrep.torsion import verify_bijection

from conftest import A3_MID_SINK, E6_BIPARTITE, d4_orientations, path_orientations, random_rep, reference_rref

FIELDS = (F2, F3, F5)
SMALL_ZOO = [q for n in range(1, 5) for q in path_orientations(n)] + d4_orientations()
ZOO = SMALL_ZOO + path_orientations(5) + orientations(*dynkin_graph("D5")) + [E6_BIPARTITE]
D4_INTO_CENTER = Quiver(4, ((1, 4), (2, 4), (3, 4)))


def rep_line(v) -> str:
    return json.dumps(rep_to_json(v), sort_keys=True)


def mor_line(f: Morphism) -> str:
    return json.dumps([[list(row) for row in c] for c in f.comps])


def vertices_of_kind(q, kind):
    return [i for i in range(1, q.n + 1) if vertex_kind(q, i) in (kind, VertexKind.ISOLATED)]


def test_digest_of_every_indecomposable():
    """rep_to_json of every indecomposable on every orientation of A1-A5, D4,
    D5 and bipartite E6 over F_2, F_3 and F_5; each is built from a simple
    by reflect_minus, so this pins the cokernel projection."""
    digest = hashlib.sha256()
    count = 0
    for q in ZOO:
        for field in FIELDS:
            cat = DynkinCategory(q, field)
            for root in cat.roots:
                digest.update(f"{q.arrows} {field.p} {rep_line(cat.indec(root))}\n".encode())
                count += 1
    assert count == 2409
    assert digest.hexdigest() == "ac4c188424cb0594b88b646288dabfa8d710bb1c870d7e87501ce0ac3f6b24de"


def test_digest_of_reflections_homs_and_endomorphisms():
    """On every orientation of A1-A4 and D4 over F_2, F_3 and F_5, for every
    indecomposable and pair of them: reflect_plus and strip_simple_summands
    at each sink, reflect_minus at each source, every hom_basis map and its
    image under reflect_plus_mor at each sink, Hom and Ext dimensions, and
    is_indecomposable of the pair's direct sum."""
    digest = hashlib.sha256()
    for q in SMALL_ZOO:
        sinks = vertices_of_kind(q, VertexKind.SINK)
        sources = vertices_of_kind(q, VertexKind.SOURCE)
        for field in FIELDS:
            cat = DynkinCategory(q, field)
            indecs = [cat.indec(r) for r in cat.roots]
            lines = []
            for v in indecs:
                lines += [rep_line(reflect_plus(q, i, v)) for i in sinks]
                lines += [rep_line(strip_simple_summands(q, i, v)) for i in sinks]
                lines += [rep_line(reflect_minus(q, i, v)) for i in sources]
                lines.append(str(is_indecomposable(v)))
            for v, w in itertools.product(indecs, repeat=2):
                basis = hom_basis(v, w).basis
                lines += [mor_line(f) for f in basis]
                lines += [mor_line(reflect_plus_mor(q, i, f)) for f in basis for i in sinks]
                lines.append(f"{hom_dim(v, w)} {ext1_dim(v, w)} {is_indecomposable(direct_sum(v, w))}")
            digest.update(f"{q.arrows} {field.p}\n{chr(10).join(lines)}\n".encode())
    assert digest.hexdigest() == "bde0a63b48798e2a28e0d421fd4861104a8687b8c83d10d7a156faca845bfc75"


def test_digest_of_the_oracle_legs():
    """On every orientation of A1-A4 and D4 over F_2 and F_3: every middle
    term of every pair of indecomposables, every subrepresentation of each
    indecomposable, and whether one indecomposable embeds in another."""
    digest = hashlib.sha256()
    for q in SMALL_ZOO:
        for field in (F2, F3):
            cat = DynkinCategory(q, field)
            indecs = [cat.indec(r) for r in cat.roots]
            lines = []
            for v in indecs:
                lines += [rep_line(sub) + mor_line(inc) for sub, inc in enumerate_subreps(v)]
            for z, x in itertools.product(indecs, repeat=2):
                lines += [rep_line(mid) for mid in enumerate_extensions(z, x)]
                lines.append(str(_embeds(z, x, _hom_kernel(z, x))))
            digest.update(f"{q.arrows} {field.p}\n{chr(10).join(lines)}\n".encode())
    assert digest.hexdigest() == "dac9584bc9b795596e977f96e27fadfa51e6e43bd2c72ba35531c96cd11bcab2"


def test_digest_of_every_bijection_report():
    """verify_bijection over F_2 on every orientation of A1-A5, D4, D5 and
    bipartite E6, as sorted-key JSON: every c-sorting word with its class,
    the counts and the checks, byte for byte."""
    digest = hashlib.sha256()
    for q in ZOO:
        digest.update(json.dumps(verify_bijection(q, F2).to_json(), sort_keys=True).encode() + b"\n")
    assert len(ZOO) == 56
    assert digest.hexdigest() == "dd80d41f86aff38424572e04dc9db9cfcb16f7d510d7f126f48f3e14e8381b37"


# -- cokernel projection against the per-column reduction ----------------------


def reference_cokernel_projection(mat, p):
    """The projection F^m -> F^m / colspace(mat), built by reducing each unit
    vector against the echelon rows of the column space and reading the
    result at the non-pivot positions."""
    m = len(mat)
    r, pivots = reference_rref(tuple(zip(*mat)), p)
    nonpiv = [j for j in range(m) if j not in pivots]
    columns = []
    for col in range(m):
        v = [int(j == col) for j in range(m)]
        for t, pc in enumerate(pivots):
            if v[pc]:
                f = v[pc]
                v = [(x - f * y) % p for x, y in zip(v, r[t])]
        columns.append([v[j] for j in nonpiv])
    return linalg.transpose(columns, len(nonpiv))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cokernel_projection_matches_per_column_reduction(p):
    rng = random.Random(f"cokernel:{p}")
    cases = [(), ((),), ((),) * 3]
    for _ in range(300):
        rows, cols = rng.randrange(6), rng.randrange(5)
        # low ranks are the interesting ones: mix in repeated rows
        base = [tuple(rng.randrange(p) for _ in range(cols)) for _ in range(max(rows, 1))]
        cases.append(tuple(base[rng.randrange(len(base))] if rng.random() < 0.3 else row for row in base[:rows]))
    for mat in cases:
        assert linalg.cokernel_projection(mat, p)[0] == reference_cokernel_projection(mat, p), mat
        projection, positions = linalg.cokernel_projection(mat, p)
        assert len(positions) == len(mat) - linalg.rank(mat, p)
        for k, j in enumerate(positions):  # the identity at its positions
            assert [row[j] for row in projection] == [int(i == k) for i in range(len(positions))], mat


# -- reflect_plus_mor against a linear solve -------------------------------------


def reference_solve(a, b, p):
    """The unique X with A X = B for A of full column rank, by Gauss-Jordan
    elimination on [A | B]; fails on an inconsistent system."""
    cols = len(a[0]) if a else 0
    aug = [[x % p for x in ra + rb] for ra, rb in zip(a, b)]
    r = 0
    for c in range(cols):
        k = next(k for k in range(r, len(aug)) if aug[k][c])  # full column rank
        aug[r], aug[k] = aug[k], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for k in range(len(aug)):
            if k != r and aug[k][c]:
                f = aug[k][c]
                aug[k] = [(x - f * y) % p for x, y in zip(aug[k], aug[r])]
        r += 1
    assert not any(any(row[cols:]) for row in aug[r:]), "inconsistent system"
    return tuple(tuple(row[cols:]) for row in aug[:cols])


def kernel_inclusion(q, i, v):
    """Rows of the inclusion of R_i^+ V at i into the sum over the arrows
    into the sink i, read off the reflected representation."""
    reflected = reflect_plus(q, i, v)
    return tuple(row for a, _ in q.in_arrows(i) for row in reflected.mats[a])


@pytest.mark.parametrize("field", [F3, F5], ids=["F3", "F5"])
@pytest.mark.parametrize("q,i", [(A3_MID_SINK, 2), (D4_INTO_CENTER, 4)], ids=["A3", "D4"])
def test_reflect_plus_mor_solves_the_restriction(q, i, field):
    """The component at the sink is the unique map g with
    incl_W g = (sum of the components at the arrows into i) incl_V."""
    p = field.p
    rng = random.Random(f"reflect_plus_mor:{q.arrows}:{p}")
    checked = 0
    while checked < 40:
        v = random_rep(q, field, rng, max_dim=2)
        w = random_rep(q, field, rng, max_dim=2)
        basis = hom_basis(v, w).basis
        if not basis:
            continue
        coeffs = [rng.randrange(p) for _ in basis]
        comps = tuple(
            tuple(
                tuple(sum(c * f.comps[k][r][s] for c, f in zip(coeffs, basis)) % p for s in range(v.dims[k]))
                for r in range(w.dims[k])
            )
            for k in range(q.n)
        )
        f = Morphism(v, w, comps)
        g = reflect_plus_mor(q, i, f)
        arrows = q.in_arrows(i)
        width_v = sum(v.dims[s - 1] for _, s in arrows)
        summed = []  # block diagonal: one block per arrow into i
        before = 0
        for _, s in arrows:
            for row in f.comps[s - 1]:
                summed.append((0,) * before + row + (0,) * (width_v - before - v.dims[s - 1]))
            before += v.dims[s - 1]
        k_v, k_w = kernel_inclusion(q, i, v), kernel_inclusion(q, i, w)
        restricted = linalg.mat_mul(summed, k_v, p, g.source.dims[i - 1])
        expected = reference_solve(k_w, restricted, p)
        assert g.comps[i - 1] == expected
        assert all(g.comps[k] == f.comps[k] for k in range(q.n) if k != i - 1)
        assert g.source.quiver == mutate_at(q, i)
        checked += 1


# -- is_indecomposable against decompose -----------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F3", "F5"])
@pytest.mark.parametrize("q", [A3_MID_SINK, D4_INTO_CENTER], ids=["A3", "D4"])
def test_is_indecomposable_agrees_with_decompose(q, field):
    rng = random.Random(f"indecomposable:{q.arrows}:{field.p}")
    cat = DynkinCategory(q, field)
    outcomes = set()
    checked = 0
    while checked < 60:
        if rng.random() < 0.5:
            v = random_rep(q, field, rng, max_dim=2)
        else:
            v = direct_sum(cat.indec(rng.choice(cat.roots)), cat.indec(rng.choice(cat.roots)))
        # V with two coordinate blocks is answered before End(V) is enumerated.
        if v.total_dim > 12 or field.p ** hom_dim(v, v) > INDEC_ENUM_GUARD and len(_blocks(v)) == 1:
            with pytest.raises(ResourceGuardError):
                is_indecomposable(v)
            continue
        summands = sum(decompose(v).values())
        assert is_indecomposable(v) == (summands == 1), v
        outcomes.add(summands == 1)
        checked += 1
    assert outcomes == {True, False}
