"""The on-disk cover specification format.

UTF-8 JSON with the keys

    vertices : [string, ...]
    edges    : [{"id": str, "src": str, "tgt": str}, ...]
    group    : {"cyclic": [int, ...]}
    dilation : {vertexId: [[int, ...], ...]}   generator lists, optional
    voltage  : {edgeId: [int, ...]}            optional, zero when absent

Orientation is src -> tgt.  A top-level "schema" or "name" entry is
tolerated and ignored on input.
"""

from __future__ import annotations

import json
from typing import Mapping

from .covers import CoverSpec
from .errors import SpecFormatError
from .graphs import build_graph
from .groups import AbelianGroup, minimal_generators, subgroup_from_generators

SCHEMA = "galois-trees/1"  # the "schema" entry of every document written

_IGNORED_KEYS = {"schema", "name", "comment"}
_KNOWN_KEYS = {"vertices", "edges", "group", "dilation", "voltage"} | _IGNORED_KEYS


def _object(data: Mapping, key: str) -> Mapping:
    """The optional object under ``key``; absent or null means empty."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise SpecFormatError(f'"{key}" must be an object')
    return value


def parse_spec(document: str | Mapping) -> CoverSpec:
    """Parse a specification document (JSON text or an already-loaded map)."""
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = document
    if not isinstance(data, Mapping):
        raise SpecFormatError("top level must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise SpecFormatError(f"unknown top-level key {sorted(unknown)[0]!r}")
    for key in ("vertices", "edges", "group"):
        if key not in data:
            raise SpecFormatError(f"missing required key {key!r}")

    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SpecFormatError('"vertices" must be a list of strings')

    edge_rows = data["edges"]
    if not isinstance(edge_rows, list):
        raise SpecFormatError('"edges" must be a list')
    descriptions = []
    for row in edge_rows:
        if not isinstance(row, Mapping) or set(row) != {"id", "src", "tgt"}:
            raise SpecFormatError(
                'each edge must be an object with exactly "id", "src", "tgt"'
            )
        if not all(isinstance(row[key], str) for key in ("id", "src", "tgt")):
            raise SpecFormatError('edge "id", "src" and "tgt" must be strings')
        descriptions.append((row["id"], row["src"], row["tgt"]))
    try:
        base = build_graph(vertices, descriptions)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc

    # `type(x) is int`, not isinstance: JSON true/false load as bool, an int subclass
    group_obj = data["group"]
    if (
        not isinstance(group_obj, Mapping)
        or set(group_obj) != {"cyclic"}
        or not isinstance(group_obj["cyclic"], list)
        or not all(type(n) is int and n >= 1 for n in group_obj["cyclic"])
    ):
        raise SpecFormatError('"group" must be {"cyclic": [positive ints]}')
    group = AbelianGroup(tuple(group_obj["cyclic"]))

    def parse_element(obj, where):
        if not isinstance(obj, list) or not all(type(x) is int for x in obj):
            raise SpecFormatError(f"{where}: group elements are lists of ints")
        try:
            return group.reduce(obj)
        except ValueError as exc:
            raise SpecFormatError(f"{where}: {exc}") from exc

    dilation = {}
    for v, gen_lists in _object(data, "dilation").items():
        if not isinstance(gen_lists, list):
            raise SpecFormatError(f"dilation at {v!r} must be a list of generators")
        gens = [parse_element(obj, f"dilation at {v!r}") for obj in gen_lists]
        dilation[v] = subgroup_from_generators(group, gens)
    voltage = {
        e: parse_element(obj, f"voltage on {e!r}") for e, obj in _object(data, "voltage").items()
    }
    try:
        return CoverSpec(base=base, group=group, dilation=dilation, voltage=voltage)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def spec_to_dict(spec: CoverSpec) -> dict:
    return {
        "schema": SCHEMA,
        "vertices": list(spec.base.vertices),
        "edges": [
            {"id": e, "src": spec.base.ends[e][0], "tgt": spec.base.ends[e][1]}
            for e in spec.base.edges
        ],
        "group": {"cyclic": list(spec.group.orders)},
        "dilation": {
            v: [list(gen) for gen in minimal_generators(sub)]
            for v, sub in sorted(spec.dilation.items())
            if not sub.is_trivial()
        },
        "voltage": {
            e: list(elt)
            for e, elt in sorted(spec.voltage.items())
            if elt != spec.group.zero()
        },
    }


def serialize_spec(spec: CoverSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)
