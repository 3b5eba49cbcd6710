"""Command-line interface.

Every command reads one specification file and writes JSON to stdout.
Exit code 0 means success, and 1 only ever means that ``verify`` decided
"not equal".  Every malformed input exits 2: a spec file that cannot
be read or parsed, a bad option value, or a spec the command cannot handle.
Only an internal fault ends in a traceback (also exit 1), never a verdict.

JSON is written by ``json_text``, a small writer whose output is byte for
byte ``json.dumps(payload, indent=2, sort_keys=True)``.  With ``indent`` set,
CPython's ``json`` falls back to its pure-Python encoder, which took a third
of ``verify``'s time on small covers.  ``json_text`` handles only the types
a payload holds (dicts with str or int keys, lists, tuples, str, int, bool
and None), recurses through one module-level function, and emits one piece
per element, its separator, key and scalar joined.
"""

from __future__ import annotations

import functools
import sys
from json.encoder import encode_basestring_ascii

import click

from .covers import build_cover, free_resolution, is_connected_cover
from .graphs import _connected_genus, degree_sequence
from .groups import characters
from .jacobians import jacobian_group, jacobian_polynomial, specialized_jacobian_polynomial
from .matroids import weight_polynomial
from .specfile import SCHEMA, parse_spec, spec_to_dict
from .verify import verify_main_theorem
from .zeta import (
    artin_l_reciprocal_three_term,
    closed_path_census,
    ihara_zeta_reciprocal,
    metric_l_reciprocal,
    metric_zeta_reciprocal,
)

_SCALARS = {True: "true", False: "false", None: "null"}


def json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` for payloads of
    dicts with str or int keys, lists, tuples, str, int, bool and None.

    Any other type raises TypeError.

    >>> print(json_text({"b": [1, None], "a": {10: True, 2: "é"}}))
    {
      "a": {
        "2": "\\u00e9",
        "10": true
      },
      "b": [
        1,
        null
      ]
    }
    """
    pieces: list[str] = []
    _write_json(payload, pieces, "", "\n")
    return "".join(pieces)


def _write_json(value, pieces: list[str], lead: str, newline: str) -> None:
    """Append ``lead`` and the JSON text of ``value`` to ``pieces``;
    ``newline`` is a line break and the indentation of ``value``'s line.

    A module-level function, not a closure, so a write makes no reference
    cycle, and the pieces are freed as soon as they are joined.
    """
    if isinstance(value, str):
        pieces.append(lead + encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        pieces.append(lead + _SCALARS[value])
    elif isinstance(value, int):
        pieces.append(lead + int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append(lead + "[]")
            return
        inner = newline + "  "
        lead += "[" + inner
        for item in value:
            _write_json(item, pieces, lead, inner)
            lead = "," + inner
        pieces.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append(lead + "{}")
            return
        inner = newline + "  "
        lead += "{" + inner
        for key, item in sorted(value.items()):
            if isinstance(key, str):
                key = encode_basestring_ascii(key)
            elif isinstance(key, int) and not isinstance(key, bool):
                key = '"' + int.__repr__(key) + '"'
            else:
                raise TypeError(f"keys must be str or int, not {type(key).__name__}")
            _write_json(item, pieces, lead + key + ": ", inner)
            lead = "," + inner
        pieces.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict):
    # explicit stream: click's cached default stdout never frees a CliRunner's
    out = click.get_text_stream("stdout")
    click.echo(json_text({"schema": SCHEMA, **payload}), file=out)


def _parse_lengths(spec, lengths: str | None):
    if not lengths:
        return None
    out = {}
    for part in lengths.split(","):
        if "=" not in part:
            raise click.UsageError(f"bad length {part!r}; expected edge=int")
        e, _, raw = part.partition("=")
        e = e.strip()
        if e not in set(spec.base.edges):
            raise ValueError(f"unknown edge {e!r} in --lengths")
        if e in out:
            raise ValueError(f"edge {e!r} given twice in --lengths")
        # ASCII digits only: int() would also take "1_0", " 1" and "١"
        digits = raw.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise click.UsageError(f"bad length {part!r}; expected edge=int")
        out[e] = int(raw)
    return out


def _character(spec, index: int):
    chars = characters(spec.group)
    if not 0 <= index < len(chars):
        raise ValueError(f"character index {index} out of range 0..{len(chars) - 1}")
    return chars[index]


character_option = click.option("--character", "index", type=int, required=True)
lengths_option = click.option(
    "--lengths", default=None, help="edge=int,edge=int,... (default all 1)"
)


@click.group()
def main():
    """Exact abelian covers of multigraphs and their tree-count factorizations."""


def command(*options):
    """Register ``body(spec, **options) -> payload`` as a command of ``main``.

    The command takes SPECFILE and the given options.  It parses
    the spec, runs the body and writes the payload.  A ValueError from either
    step, an unreadable file included, is written as ``error: ...`` to stderr
    with exit 2; a payload that decides ``"equal": false`` exits 1.
    """

    def register(body):
        @functools.wraps(body)
        def run(specfile, **kwargs):
            try:
                with open(specfile, "r", encoding="utf-8") as fh:
                    spec = parse_spec(fh.read())
                payload = body(spec, **kwargs)
            except (OSError, ValueError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            _emit(payload)
            if payload.get("equal") is False:
                sys.exit(1)

        for decorator in reversed(options):
            run = decorator(run)
        run = click.argument("specfile", type=click.Path(exists=True))(run)
        return main.command()(run)

    return register


@command()
def build(spec):
    """Construct the cover and print its shape."""
    cover = build_cover(spec)
    payload = {
        "normalized_voltages_on": list(cover.reduced_edges),
        "total": {
            "vertices": list(cover.total.vertices),
            "edges": [
                {"id": e, "src": cover.total.ends[e][0], "tgt": cover.total.ends[e][1]}
                for e in cover.total.edges
            ],
        },
        "vertex_fibers": {v: list(cover.vertex_fiber(v)) for v in cover.base.vertices},
        "local_degrees": dict(sorted(cover.local_degrees.items())),
        "connected": is_connected_cover(cover),
        "degree_sequence": list(degree_sequence(cover.total)),
    }
    if payload["connected"]:
        payload["genus"] = _connected_genus(cover.total)
    return payload


@command(click.option("--cover", "on_cover", is_flag=True, help="use the built cover's total graph"))
def jacobian(spec, on_cover):
    """Critical group of the base graph (or of the cover with --cover)."""
    group = jacobian_group(build_cover(spec).total if on_cover else spec.base)
    return {"invariant_factors": list(group.invariant_factors), "order": group.order}


@command(click.option("--cover", "on_cover", is_flag=True, help="cover polynomial in base variables"))
def jacpoly(spec, on_cover):
    """Spanning-tree polynomial of the base (or the specialized cover polynomial)."""
    if on_cover:
        poly = specialized_jacobian_polynomial(build_cover(spec))
    else:
        poly = jacobian_polynomial(spec.base)
    return {"polynomial": poly.to_jsonable(), "tree_count": poly.value_at_ones()}


@command(character_option)
def matroid(spec, index):
    """Twisted matroid bases, weights, and weight polynomial."""
    rho = _character(spec, index)
    report = weight_polynomial(spec, rho)
    return {
        "character_exponents": list(rho.exponents),
        "rank": report.rank,
        "bases": [
            {"edges": list(basis), "weight": weight.to_jsonable()}
            for basis, weight in zip(report.bases, report.weights)
        ],
        "weight_polynomial": report.polynomial.to_jsonable(),
        "scalar_weight": report.scalar.to_jsonable(),
    }


@command(
    lengths_option,
    click.option("--max-length", "census", type=int, default=0, help="closed path census"),
)
def zeta(spec, lengths, census):
    """Zeta reciprocals of the base graph; optional closed-path census."""
    ell = _parse_lengths(spec, lengths)
    payload = {
        "metric_zeta_reciprocal": metric_zeta_reciprocal(spec.base, ell).to_jsonable(),
        "ihara_zeta_reciprocal": ihara_zeta_reciprocal(spec.base).to_jsonable(),
    }
    if census:
        payload["census"] = closed_path_census(spec.base, census)
    return payload


@command(character_option, lengths_option)
def lfunction(spec, index, lengths):
    """L-function reciprocals of a dilation-free cover at one character."""
    rho = _character(spec, index)
    ell = _parse_lengths(spec, lengths)
    return {
        "character_exponents": list(rho.exponents),
        "metric_l_reciprocal": metric_l_reciprocal(spec, rho, ell).to_jsonable(),
        "three_term_reciprocal": artin_l_reciprocal_three_term(spec, rho).to_jsonable(),
    }


@command()
def resolve(spec):
    """Replace dilation by voltage loops; prints the dilation-free spec."""
    resolved, added = free_resolution(spec)
    return {"added_edges": list(added), "spec": spec_to_dict(resolved)}


@command()
def verify(spec):
    """Verify the tree-polynomial factorization; exit 1 when it fails."""
    return verify_main_theorem(spec).summary()


if __name__ == "__main__":
    main()
