"""Command-line access to every operation.

All commands read quivers, representations and classes from JSON files,
print a single deterministic JSON value on stdout (or an aligned table with
``--format table``), and report domain failures as one tagged JSON object
on stderr with exit code 1.  Usage errors exit with code 2.
"""

from __future__ import annotations

import functools
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
    Quiver,
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
    left_descent,
    reduce_word,
    weyl_element,
)


def _echo_json(value) -> None:
    click.echo(json.dumps(value, sort_keys=True, separators=(",", ":")))


def _emit(value, fmt: str, table: str | None = None) -> None:
    if fmt == "table" and table is not None:
        click.echo(table)
    else:
        _echo_json(value)


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


def handles_domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except QuivrepError as exc:
            click.echo(
                json.dumps({"error": exc.tag, "message": str(exc)}, sort_keys=True),
                err=True,
            )
            sys.exit(1)

    return wrapper


quiver_option = click.option("--quiver", "quiver_path", required=True, type=click.Path(), help="quiver JSON file")
format_option = click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
field_option = click.option("--field", "field_p", type=int, default=2, help="prime field characteristic")


def _quiver(path: str) -> Quiver:
    return quiver_from_json(_load_json(path))


@click.group()
def cli() -> None:
    """Exact quiver/Coxeter computations: forms, roots, reflection functors,
    sortable elements and torsion-free classes."""


# -- quiver ---------------------------------------------------------------


@cli.group("quiver")
def quiver_group() -> None:
    """Inspect and mutate quivers."""


@quiver_group.command("show")
@quiver_option
@format_option
@handles_domain_errors
def quiver_show(quiver_path, fmt):
    q = _quiver(quiver_path)
    kinds = {str(i): vertex_kind(q, i).value for i in range(1, q.n + 1)}
    value = dict(quiver_to_json(q), vertex_kinds=kinds)
    lines = [f"{s} -> {t}" for s, t in q.arrows] or ["(no arrows)"]
    table = f"vertices 1..{q.n}\n" + "\n".join(lines)
    _emit(value, fmt, table)


@quiver_group.command("mutate")
@quiver_option
@click.option("--vertex", type=int, required=True)
@format_option
@handles_domain_errors
def quiver_mutate(quiver_path, vertex, fmt):
    q = mutate_at(_quiver(quiver_path), vertex)
    _emit(quiver_to_json(q), fmt, "\n".join(f"{s} -> {t}" for s, t in q.arrows))


@quiver_group.command("type")
@quiver_option
@format_option
@handles_domain_errors
def quiver_type(quiver_path, fmt):
    t = dynkin_type(_quiver(quiver_path))
    value = {"components": list(t.components), "is_dynkin": t.is_dynkin}
    _emit(value, fmt, " + ".join(t.components))


# -- forms ---------------------------------------------------------------


@cli.group("form")
def form_group() -> None:
    """Evaluate the Euler form and its symmetrization."""


def _form_command(name, fn):
    @form_group.command(name)
    @quiver_option
    @click.option("--beta", required=True, help="comma-separated integers")
    @click.option("--gamma", required=True, help="comma-separated integers")
    @format_option
    @handles_domain_errors
    def _cmd(quiver_path, beta, gamma, fmt):
        value = fn(_quiver(quiver_path), _parse_ints(beta), _parse_ints(gamma))
        _emit(value, fmt, str(value))


_form_command("euler", euler_form)
_form_command("sym", sym_form)


# -- weyl ----------------------------------------------------------------


@cli.group("weyl")
def weyl_group() -> None:
    """Reduced words, inversion sets and descents."""


@weyl_group.command("inv")
@quiver_option
@click.option("--word", required=True, help="comma-separated generator indices")
@format_option
@handles_domain_errors
def weyl_inv(quiver_path, word, fmt):
    q = _quiver(quiver_path)
    inv = inversion_set(q, _parse_ints(word))
    value = [list(r) for r in inv.roots]
    table = "\n".join("(" + ", ".join(str(x) for x in r) + ")" for r in inv.roots) or "(empty)"
    _emit(value, fmt, table)


@weyl_group.command("reduce")
@quiver_option
@click.option("--word", required=True)
@format_option
@handles_domain_errors
def weyl_reduce(quiver_path, word, fmt):
    reduced = reduce_word(_quiver(quiver_path), _parse_ints(word))
    _emit(list(reduced), fmt, ",".join(map(str, reduced)) or "e")


@weyl_group.command("descent")
@quiver_option
@click.option("--word", required=True)
@click.option("--vertex", type=int, required=True)
@format_option
@handles_domain_errors
def weyl_descent(quiver_path, word, vertex, fmt):
    q = _quiver(quiver_path)
    value = left_descent(q, vertex, weyl_element(q, _parse_ints(word)))
    _emit(value, fmt, str(value).lower())


# -- roots ---------------------------------------------------------------


@cli.group("roots")
def roots_group() -> None:
    """Real-root listings and root classification."""


@roots_group.command("list")
@quiver_option
@click.option("--height-bound", type=int, default=None)
@format_option
@handles_domain_errors
def roots_list(quiver_path, height_bound, fmt):
    listing = positive_real_roots(_quiver(quiver_path), height_bound)
    value = {"roots": [list(r) for r in listing.roots], "complete": listing.complete}
    table = "\n".join(str(tuple(r)) for r in listing.roots)
    table += "\ncomplete" if listing.complete else "\ntruncated at the height bound"
    _emit(value, fmt, table)


@roots_group.command("classify")
@quiver_option
@click.option("--vector", required=True)
@click.option("--search-bound", type=int, default=None)
@format_option
@handles_domain_errors
def roots_classify(quiver_path, vector, search_bound, fmt):
    cls = classify_vector(_quiver(quiver_path), _parse_ints(vector), search_bound)
    _emit(cls.value, fmt, cls.value)


# -- sortable -------------------------------------------------------------


@cli.group("sortable")
def sortable_group() -> None:
    """c-sortable elements for the quiver's Coxeter element."""


@sortable_group.command("check")
@quiver_option
@click.option("--word", required=True)
@format_option
@handles_domain_errors
def sortable_check(quiver_path, word, fmt):
    from .weyl import is_c_sortable

    q = _quiver(quiver_path)
    value = is_c_sortable(q, weyl_element(q, _parse_ints(word)))
    _emit(value, fmt, str(value).lower())


@sortable_group.command("enumerate")
@quiver_option
@click.option("--length-bound", type=int, default=None)
@format_option
@handles_domain_errors
def sortable_enumerate(quiver_path, length_bound, fmt):
    elems = enumerate_c_sortable(_quiver(quiver_path), length_bound)
    value = [element_to_json(w) for w in elems]
    table = "\n".join(",".join(map(str, w.word)) or "e" for w in elems)
    _emit(value, fmt, table)


@sortable_group.command("count")
@quiver_option
@click.option("--length-bound", type=int, default=None)
@format_option
@handles_domain_errors
def sortable_count(quiver_path, length_bound, fmt):
    value = len(enumerate_c_sortable(_quiver(quiver_path), length_bound))
    _emit(value, fmt, str(value))


# -- rep -----------------------------------------------------------------


@cli.group("rep")
def rep_group() -> None:
    """Representations over F_p: Hom, Ext, reflection functors."""


rep_option = click.option(
    "--rep",
    "rep_paths",
    multiple=True,
    required=True,
    type=click.Path(),
    help="representation JSON file (repeat for a pair)",
)


def _load_pair(q, rep_paths):
    if len(rep_paths) != 2:
        raise InputFormatError("this command needs --rep twice: first V, then W")
    return rep_from_json(q, _load_json(rep_paths[0])), rep_from_json(q, _load_json(rep_paths[1]))


@rep_group.command("hom")
@quiver_option
@rep_option
@format_option
@handles_domain_errors
def rep_hom(quiver_path, rep_paths, fmt):
    q = _quiver(quiver_path)
    v, w = _load_pair(q, rep_paths)
    value = hom_dim(v, w)
    _emit(value, fmt, str(value))


@rep_group.command("ext")
@quiver_option
@rep_option
@format_option
@handles_domain_errors
def rep_ext(quiver_path, rep_paths, fmt):
    q = _quiver(quiver_path)
    v, w = _load_pair(q, rep_paths)
    value = ext1_dim(v, w)
    _emit(value, fmt, str(value))


@rep_group.command("reflect")
@quiver_option
@click.option("--rep", "rep_path", required=True, type=click.Path())
@click.option("--vertex", type=int, required=True)
@click.option("--direction", type=click.Choice(["plus", "minus"]), default="plus")
@format_option
@handles_domain_errors
def rep_reflect(quiver_path, rep_path, vertex, direction, fmt):
    q = _quiver(quiver_path)
    v = rep_from_json(q, _load_json(rep_path))
    out = reflect_plus(q, vertex, v) if direction == "plus" else reflect_minus(q, vertex, v)
    value = {"quiver": quiver_to_json(out.quiver), "rep": rep_to_json(out)}
    _emit(value, fmt, f"dims {out.dims} on arrows {out.quiver.arrows}")


@rep_group.command("decompose")
@quiver_option
@click.option("--rep", "rep_path", required=True, type=click.Path())
@format_option
@handles_domain_errors
def rep_decompose(quiver_path, rep_path, fmt):
    q = _quiver(quiver_path)
    v = rep_from_json(q, _load_json(rep_path))
    summands = decompose(v)
    value = [
        {"root": list(root), "multiplicity": m} for root, m in sorted(summands.items())
    ]
    table = "\n".join(f"{tuple(root)} x {m}" for root, m in sorted(summands.items())) or "0"
    _emit(value, fmt, table)


@rep_group.command("indec")
@quiver_option
@click.option("--root", required=True, help="comma-separated dimension vector")
@field_option
@format_option
@handles_domain_errors
def rep_indec(quiver_path, root, field_p, fmt):
    q = _quiver(quiver_path)
    v = indec_of_real_root(q, _parse_ints(root), FieldSpec(field_p))
    _emit(rep_to_json(v), fmt, f"dims {v.dims}")


# -- tfc -----------------------------------------------------------------


@cli.group("tfc")
def tfc_group() -> None:
    """Torsion-free classes and the sortable correspondence."""


@tfc_group.command("of-word")
@quiver_option
@click.option("--word", required=True)
@field_option
@format_option
@handles_domain_errors
def tfc_of_word(quiver_path, word, field_p, fmt):
    q = _quiver(quiver_path)
    c = tfc_of_sortable(q, weyl_element(q, _parse_ints(word)), FieldSpec(field_p))
    table = "\n".join(str(tuple(r)) for r in c.sorted_roots) or "0"
    _emit(tfc_to_json(c), fmt, table)


@tfc_group.command("to-word")
@click.option("--class", "class_path", required=True, type=click.Path(), help="class JSON file")
@field_option
@format_option
@handles_domain_errors
def tfc_to_word(class_path, field_p, fmt):
    c = tfc_from_json(_load_json(class_path), FieldSpec(field_p))
    w = sortable_of_tfc(c.quiver, c)
    _emit(element_to_json(w), fmt, ",".join(map(str, w.word)) or "e")


@tfc_group.command("enumerate")
@quiver_option
@field_option
@format_option
@handles_domain_errors
def tfc_enumerate(quiver_path, field_p, fmt):
    q = _quiver(quiver_path)
    classes = enumerate_tfc(q, FieldSpec(field_p))
    value = {
        "quiver": quiver_to_json(q),
        "classes": [[list(r) for r in c.sorted_roots] for c in classes],
    }
    table = "\n".join(
        "{" + ", ".join(str(tuple(r)) for r in c.sorted_roots) + "}" if c.sorted_roots else "0"
        for c in classes
    )
    _emit(value, fmt, table)


@tfc_group.command("verify")
@quiver_option
@field_option
@format_option
@handles_domain_errors
def tfc_verify(quiver_path, field_p, fmt):
    report = verify_bijection(_quiver(quiver_path), FieldSpec(field_p))
    data = report.to_json()
    lines = [
        f"sortable elements: {report.sortable_count}",
        f"torsion-free classes: {report.tfc_count}",
        f"pass: {str(report.passed).lower()}",
    ]
    lines += [
        (",".join(map(str, word)) or "e").ljust(16)
        + " | "
        + (", ".join(str(tuple(r)) for r in roots) or "0")
        for word, roots in report.rows
    ]
    _emit(data, fmt, "\n".join(lines))


def main() -> None:
    cli(prog_name="quivrep")


if __name__ == "__main__":
    main()
