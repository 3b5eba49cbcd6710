"""Command-line interface.

Every command reads one specification file, writes JSON (default) or text to
stdout, and exits 0 on success, 1 when a verification decides "not equal",
and 2 on input or usage errors.
"""

from __future__ import annotations

import json
import sys

import click

from .covers import build_cover, free_resolution, is_connected_cover, validate_spec
from .errors import SpecFormatError
from .graphs import degree_sequence, genus
from .groups import characters
from .jacobians import jacobian_group, jacobian_polynomial, specialized_jacobian_polynomial
from .matroids import weight_polynomial
from .specfile import parse_spec, spec_to_dict
from .verify import verify_main_theorem
from .zeta import (
    artin_l_reciprocal_three_term,
    closed_path_census,
    ihara_zeta_reciprocal,
    metric_l_reciprocal,
    metric_zeta_reciprocal,
)

SCHEMA = "galois-trees/1"


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except (OSError, SpecFormatError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _emit(payload: dict, fmt: str):
    payload = {"schema": SCHEMA, **payload}
    # explicit stream: click's cached default stdout never frees a CliRunner's
    out = click.get_text_stream("stdout")
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for key, value in payload.items():
            click.echo(f"{key}: {value}", file=out)


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
            click.echo(f"error: unknown edge {e!r} in --lengths", err=True)
            sys.exit(2)
        try:
            out[e] = int(raw)
        except ValueError:
            raise click.UsageError(f"bad length {part!r}; expected edge=int")
    return out


def _character(spec, index: int):
    chars = characters(spec.group)
    if not 0 <= index < len(chars):
        click.echo(
            f"error: character index {index} out of range 0..{len(chars) - 1}",
            err=True,
        )
        sys.exit(2)
    return chars[index]


def _unipoly_json(p):
    out = []
    for c in p.coeffs:
        if isinstance(c, int):
            out.append(c)
        else:
            n = c.as_int()
            out.append(n if n is not None else {"conductor": c.conductor, "coeffs": list(c.coeffs)})
    return out


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json"
)


@click.group()
def main():
    """Exact abelian covers of multigraphs and their tree-count factorizations."""


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@format_option
def build(specfile, fmt):
    """Construct the cover and print its shape."""
    spec = _load_spec(specfile)
    normalized, reduced = validate_spec(spec)
    cover = build_cover(normalized)
    payload = {
        "normalized_voltages_on": list(reduced),
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
        payload["genus"] = genus(cover.total)
    _emit(payload, fmt)


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--cover", "on_cover", is_flag=True, help="use the built cover's total graph")
@format_option
def jacobian(specfile, on_cover, fmt):
    """Critical group of the base graph (or of the cover with --cover)."""
    spec = _load_spec(specfile)
    graph = build_cover(spec).total if on_cover else spec.base
    try:
        group = jacobian_group(graph)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit(
        {"invariant_factors": list(group.invariant_factors), "order": group.order},
        fmt,
    )


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--cover", "on_cover", is_flag=True, help="cover polynomial in base variables")
@format_option
def jacpoly(specfile, on_cover, fmt):
    """Spanning-tree polynomial of the base (or the specialized cover polynomial)."""
    spec = _load_spec(specfile)
    try:
        if on_cover:
            poly = specialized_jacobian_polynomial(build_cover(spec))
        else:
            poly = jacobian_polynomial(spec.base)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit({"polynomial": poly.to_jsonable(), "tree_count": poly.value_at_ones()}, fmt)


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--character", "index", type=int, required=True)
@format_option
def matroid(specfile, index, fmt):
    """Twisted matroid bases, weights, and weight polynomial."""
    spec = _load_spec(specfile)
    rho = _character(spec, index)
    try:
        report = weight_polynomial(spec, rho)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    payload = {
        "character_exponents": list(rho.exponents),
        "rank": report.matroid.rank,
        "bases": [
            {
                "edges": list(basis),
                "weight": {
                    "conductor": weight.conductor,
                    "coeffs": list(weight.coeffs),
                    "embedding": f"{weight.embed().real:.12g}",
                },
            }
            for basis, weight in zip(report.matroid.bases, report.matroid.weights)
        ],
        "weight_polynomial": report.polynomial.to_jsonable(),
        "scalar_weight": {
            "conductor": report.scalar.conductor,
            "coeffs": list(report.scalar.coeffs),
            "embedding": f"{report.scalar.embed().real:.12g}",
        },
    }
    _emit(payload, fmt)


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--lengths", default=None, help="edge=int,edge=int,... (default all 1)")
@click.option("--max-length", "census", type=int, default=0, help="closed path census")
@format_option
def zeta(specfile, lengths, census, fmt):
    """Zeta reciprocals of the base graph; optional closed-path census."""
    spec = _load_spec(specfile)
    ell = _parse_lengths(spec, lengths)
    try:
        payload = {
            "metric_zeta_reciprocal": _unipoly_json(metric_zeta_reciprocal(spec.base, ell)),
            "ihara_zeta_reciprocal": _unipoly_json(ihara_zeta_reciprocal(spec.base)),
        }
        if census:
            payload["census"] = closed_path_census(spec.base, census)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit(payload, fmt)


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--character", "index", type=int, required=True)
@click.option("--lengths", default=None, help="edge=int,edge=int,... (default all 1)")
@format_option
def lfunction(specfile, index, lengths, fmt):
    """L-function reciprocals of a dilation-free cover at one character."""
    spec = _load_spec(specfile)
    rho = _character(spec, index)
    ell = _parse_lengths(spec, lengths)
    try:
        payload = {
            "character_exponents": list(rho.exponents),
            "metric_l_reciprocal": _unipoly_json(metric_l_reciprocal(spec, rho, ell)),
            "three_term_reciprocal": _unipoly_json(artin_l_reciprocal_three_term(spec, rho)),
        }
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit(payload, fmt)


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@format_option
def resolve(specfile, fmt):
    """Replace dilation by voltage loops; prints the dilation-free spec."""
    spec = _load_spec(specfile)
    resolved, added = free_resolution(spec)
    _emit({"added_edges": list(added), "spec": spec_to_dict(resolved)}, fmt)


@main.command()
@click.argument("specfile", type=click.Path(exists=True))
@format_option
def verify(specfile, fmt):
    """Verify the tree-polynomial factorization; exit 1 when it fails."""
    spec = _load_spec(specfile)
    try:
        report = verify_main_theorem(spec)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit(report.summary(), fmt)
    if not report.equal:
        sys.exit(1)


if __name__ == "__main__":
    main()
