"""Command-line access to every operation.

All commands read quivers, representations and classes from JSON files,
print a single deterministic JSON value on stdout (or an aligned table with
``--format table``), and report domain failures as one tagged JSON object
on stderr with exit code 1.  Usage errors exit with code 2.
"""

from __future__ import annotations

import json
import re
import sys

import click

from .errors import InputFormatError, QuivrepError
from .linrep import (
    FieldSpec,
    decompose,
    ext1_dim,
    hom_dim,
    indec_of_real_root,
    mutate_at,
    reflect_minus,
    reflect_plus,
    rep_from_json,
    rep_to_json,
)
from .quiver import (
    dynkin_type,
    euler_form,
    quiver_from_json,
    quiver_to_json,
    sym_form,
    vertex_kind,
)
from .roots import classify_vector, positive_real_roots
from .torsion import (
    enumerate_tfc,
    sortable_of_tfc,
    tfc_from_json,
    tfc_of_sortable,
    tfc_to_json,
    verify_bijection,
)
from .weyl import (
    element_to_json,
    enumerate_c_sortable,
    inversion_set,
    is_c_sortable,
    left_descent,
    reduce_word,
    weyl_element,
)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    parts = text.split(",")
    # ASCII digits only: int() alone would also read "١" as 1 and "1_0" as 10
    if all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", part) for part in parts):
        try:
            return tuple(int(part) for part in parts)
        except ValueError:  # more digits than int() converts
            pass
    raise InputFormatError(f"expected comma-separated integers, got {text!r}")


def _word(word) -> str:
    return ",".join(map(str, word)) or "e"


def _roots(roots, sep: str = ", ", empty: str = "0") -> str:
    return sep.join(str(tuple(r)) for r in roots) or empty


QUIVER = click.option("--quiver", "quiver_path", required=True, type=click.Path(), help="quiver JSON file")
FORMAT = click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
FIELD = click.option("--field", "field_p", type=int, default=2, help="prime field characteristic")
WORD = click.option("--word", required=True)
VERTEX = click.option("--vertex", type=int, required=True)
LENGTH_BOUND = click.option("--length-bound", type=int, default=None)
REP = click.option("--rep", "rep_path", required=True, type=click.Path())


def command(group: click.Group, name: str, *options, quiver: bool = True):
    """Register the decorated body as the subcommand ``name`` of ``group``.

    The subcommand takes ``--quiver`` (unless ``quiver`` is false), then
    ``options`` in the given order, then ``--format``.  The body is called
    with the loaded quiver first and the options by name, and returns
    ``(value, table)``: the JSON value printed by default, and the text
    printed with ``--format table``.  A QuivrepError raised while loading
    or in the body is printed as one tagged JSON object on stderr and exits
    with code 1.  The body is returned unchanged.
    """

    def register(body):
        def run(fmt, quiver_path=None, **kwargs):
            try:
                args = (quiver_from_json(_load_json(quiver_path)),) if quiver else ()
                value, table = body(*args, **kwargs)
            except QuivrepError as exc:
                click.echo(json.dumps({"error": exc.tag, "message": str(exc)}, sort_keys=True), err=True)
                sys.exit(1)
            click.echo(table if fmt == "table" else json.dumps(value, sort_keys=True, separators=(",", ":")))

        for option in reversed((QUIVER, *options, FORMAT) if quiver else (*options, FORMAT)):
            run = option(run)
        group.command(name)(run)
        return body

    return register


@click.group()
def cli() -> None:
    """Exact quiver/Coxeter computations: forms, roots, reflection functors,
    sortable elements and torsion-free classes."""


# -- quiver ---------------------------------------------------------------


@cli.group("quiver")
def quiver_group() -> None:
    """Inspect and mutate quivers."""


def _arrows(q) -> str:
    return "\n".join(f"{s} -> {t}" for s, t in q.arrows)


@command(quiver_group, "show")
def quiver_show(q):
    kinds = {str(i): vertex_kind(q, i).value for i in range(1, q.n + 1)}
    return dict(quiver_to_json(q), vertex_kinds=kinds), f"vertices 1..{q.n}\n" + (_arrows(q) or "(no arrows)")


@command(quiver_group, "mutate", VERTEX)
def quiver_mutate(q, vertex):
    out = mutate_at(q, vertex)
    return quiver_to_json(out), _arrows(out)


@command(quiver_group, "type")
def quiver_type(q):
    t = dynkin_type(q)
    return {"components": list(t.components), "is_dynkin": t.is_dynkin}, " + ".join(t.components)


# -- forms ---------------------------------------------------------------


@cli.group("form")
def form_group() -> None:
    """Evaluate the Euler form and its symmetrization."""


for _name, _form in (("euler", euler_form), ("sym", sym_form)):

    @command(
        form_group,
        _name,
        click.option("--beta", required=True, help="comma-separated integers"),
        click.option("--gamma", required=True, help="comma-separated integers"),
    )
    def form_value(q, beta, gamma, form=_form):
        value = form(q, _parse_ints(beta), _parse_ints(gamma))
        return value, str(value)


# -- weyl ----------------------------------------------------------------


@cli.group("weyl")
def weyl_group() -> None:
    """Reduced words, inversion sets and descents."""


@command(weyl_group, "inv", click.option("--word", required=True, help="comma-separated generator indices"))
def weyl_inv(q, word):
    roots = inversion_set(q, _parse_ints(word)).roots
    return [list(r) for r in roots], _roots(roots, "\n", "(empty)")


@command(weyl_group, "reduce", WORD)
def weyl_reduce(q, word):
    reduced = reduce_word(q, _parse_ints(word))
    return list(reduced), _word(reduced)


@command(weyl_group, "descent", WORD, VERTEX)
def weyl_descent(q, word, vertex):
    value = left_descent(q, vertex, weyl_element(q, _parse_ints(word)))
    return value, str(value).lower()


# -- roots ---------------------------------------------------------------


@cli.group("roots")
def roots_group() -> None:
    """Real-root listings and root classification."""


@command(roots_group, "list", click.option("--height-bound", type=int, default=None))
def roots_list(q, height_bound):
    listing = positive_real_roots(q, height_bound)
    value = {"roots": [list(r) for r in listing.roots], "complete": listing.complete}
    status = "complete" if listing.complete else "truncated at the height bound"
    return value, _roots(listing.roots, "\n", "(empty)") + "\n" + status


@command(
    roots_group,
    "classify",
    click.option("--vector", required=True),
    click.option("--search-bound", type=int, default=None),
)
def roots_classify(q, vector, search_bound):
    cls = classify_vector(q, _parse_ints(vector), search_bound)
    return cls.value, cls.value


# -- sortable -------------------------------------------------------------


@cli.group("sortable")
def sortable_group() -> None:
    """c-sortable elements for the quiver's Coxeter element."""


@command(sortable_group, "check", WORD)
def sortable_check(q, word):
    value = is_c_sortable(q, weyl_element(q, _parse_ints(word)))
    return value, str(value).lower()


@command(sortable_group, "enumerate", LENGTH_BOUND)
def sortable_enumerate(q, length_bound):
    elems = enumerate_c_sortable(q, length_bound)
    return [element_to_json(w) for w in elems], "\n".join(_word(w.word) for w in elems)


@command(sortable_group, "count", LENGTH_BOUND)
def sortable_count(q, length_bound):
    value = len(enumerate_c_sortable(q, length_bound))
    return value, str(value)


# -- rep -----------------------------------------------------------------


@cli.group("rep")
def rep_group() -> None:
    """Representations over F_p: Hom, Ext, reflection functors."""


def _rep(q, path: str):
    return rep_from_json(q, _load_json(path))


for _name, _dim in (("hom", hom_dim), ("ext", ext1_dim)):

    @command(
        rep_group,
        _name,
        click.option(
            "--rep",
            "rep_paths",
            multiple=True,
            required=True,
            type=click.Path(),
            help="representation JSON file (repeat for a pair)",
        ),
    )
    def rep_pair_dim(q, rep_paths, dim=_dim):
        if len(rep_paths) != 2:
            raise InputFormatError("this command needs --rep twice: first V, then W")
        value = dim(_rep(q, rep_paths[0]), _rep(q, rep_paths[1]))
        return value, str(value)


@command(
    rep_group,
    "reflect",
    REP,
    VERTEX,
    click.option("--direction", type=click.Choice(["plus", "minus"]), default="plus"),
)
def rep_reflect(q, rep_path, vertex, direction):
    v = _rep(q, rep_path)
    out = reflect_plus(q, vertex, v) if direction == "plus" else reflect_minus(q, vertex, v)
    value = {"quiver": quiver_to_json(out.quiver), "rep": rep_to_json(out)}
    return value, f"dims {out.dims} on arrows {out.quiver.arrows}"


@command(rep_group, "decompose", REP)
def rep_decompose(q, rep_path):
    summands = sorted(decompose(_rep(q, rep_path)).items())
    value = [{"root": list(root), "multiplicity": m} for root, m in summands]
    return value, "\n".join(f"{tuple(root)} x {m}" for root, m in summands) or "0"


@command(
    rep_group,
    "indec",
    click.option("--root", required=True, help="comma-separated dimension vector"),
    FIELD,
)
def rep_indec(q, root, field_p):
    v = indec_of_real_root(q, _parse_ints(root), FieldSpec(field_p))
    return rep_to_json(v), f"dims {v.dims}"


# -- tfc -----------------------------------------------------------------


@cli.group("tfc")
def tfc_group() -> None:
    """Torsion-free classes and the sortable correspondence."""


@command(tfc_group, "of-word", WORD, FIELD)
def tfc_of_word(q, word, field_p):
    c = tfc_of_sortable(q, weyl_element(q, _parse_ints(word)), FieldSpec(field_p))
    return tfc_to_json(c), _roots(c.sorted_roots, "\n")


@command(
    tfc_group,
    "to-word",
    click.option("--class", "class_path", required=True, type=click.Path(), help="class JSON file"),
    FIELD,
    quiver=False,
)
def tfc_to_word(class_path, field_p):
    c = tfc_from_json(_load_json(class_path), FieldSpec(field_p))
    w = sortable_of_tfc(c.quiver, c)
    return element_to_json(w), _word(w.word)


@command(tfc_group, "enumerate", FIELD)
def tfc_enumerate(q, field_p):
    classes = enumerate_tfc(q, FieldSpec(field_p))
    value = {
        "quiver": quiver_to_json(q),
        "classes": [[list(r) for r in c.sorted_roots] for c in classes],
    }
    return value, "\n".join("{" + _roots(c.sorted_roots) + "}" if c.sorted_roots else "0" for c in classes)


@command(tfc_group, "verify", FIELD)
def tfc_verify(q, field_p):
    report = verify_bijection(q, FieldSpec(field_p))
    lines = [
        f"sortable elements: {report.sortable_count}",
        f"torsion-free classes: {report.tfc_count}",
        f"pass: {str(report.passed).lower()}",
    ]
    lines += [_word(word).ljust(16) + " | " + _roots(roots) for word, roots in report.rows]
    return report.to_json(), "\n".join(lines)


def main() -> None:
    cli(prog_name="quivrep")


if __name__ == "__main__":
    main()
