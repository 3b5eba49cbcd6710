"""The benchmark's four workloads: seeded inputs, the timed call, the known answers.

Each workload turns ``--seed`` into a list of inputs, runs one input per
timed call, and checks the result of every call against an answer known
before the call: a published value, an independent count (Kirchhoff's
cofactor through ``int_det``, a separate code path from the Smith form), or
an identity whose two sides are computed separately.

All library calls go through module attributes (``verify.verify_main_theorem``
rather than a name imported here), so a traced run that rebinds those
attributes sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

from galois_trees import cli, covers, graphs, groups, jacobians, matroids, specfile, verify, zeta
from galois_trees.algebra import CycInt, MultiPoly, UniPoly

# The distribution of tests/helpers.random_cover_spec, redrawn here so that
# edits to tests/ cannot change a workload.  Group orders are at most 6.
RANDOM_GROUPS = ((2,), (3,), (4,), (5,), (6,), (2, 2))


@dataclass
class Item:
    """One input: its spec document, what the timed call needs, the known answer."""

    name: str
    doc: dict
    size: int  # cover edges, used only to pick the cheapest input for warm-up
    spec: object = None
    path: str | None = None
    lengths: dict | None = None
    expected: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    poly_checked: bool | None  # None: the input is not a ``verify`` call
    output: str = ""
    reason: str = ""


# -- seeded generation ------------------------------------------------------


def _random_element(rng: random.Random, orders) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for n in orders)


def _random_multigraph(rng: random.Random, max_vertices: int, max_edges: int):
    """A connected multigraph: a random tree plus random extra edges and loops."""
    nv = rng.randint(1, max_vertices)
    vids = [f"v{i}" for i in range(nv)]
    edges = [(f"t{i}", f"v{rng.randrange(i)}", f"v{i}") for i in range(1, nv)]
    ne = rng.randint(nv - 1, max_edges)
    k = 0
    while len(edges) < ne:
        edges.append((f"x{k}", f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}"))
        k += 1
    return vids, edges


def random_cover_docs(
    rng: random.Random,
    count: int,
    *,
    free: bool,
    max_vertices: int,
    max_edges: int,
    group_orders,
    tree_cap: int | None = None,
    dilation_prob: float = 0.35,
    voltage_prob: float = 0.8,
) -> list[dict]:
    """Random connected covers as spec documents.

    Draws from the random generator in the same order as
    ``tests/helpers.random_cover_spec``, so a given population seed yields
    the same covers as the acceptance suite with that seed.
    """
    docs = []
    while len(docs) < count:
        vids, edges = _random_multigraph(rng, max_vertices, max_edges)
        base = graphs.build_graph(vids, edges)
        group = groups.AbelianGroup(group_orders[rng.randrange(len(group_orders))])
        dilation = {}
        if not free:
            for v in base.vertices:
                if rng.random() < dilation_prob:
                    gens = [
                        _random_element(rng, group.orders)
                        for _ in range(rng.randint(1, 2))
                    ]
                    sub = groups.subgroup_from_generators(group, gens)
                    if not sub.is_trivial():
                        dilation[v] = sub
        voltage = {}
        for e in base.edges:
            if rng.random() < voltage_prob:
                elt = _random_element(rng, group.orders)
                if any(elt):
                    voltage[e] = elt
        spec = covers.CoverSpec(base=base, group=group, dilation=dilation, voltage=voltage)
        cover = covers.build_cover(spec)
        if not covers.is_connected_cover(cover):
            continue
        if tree_cap is not None and jacobians.jacobian_group(cover.total).order > tree_cap:
            continue
        docs.append(specfile.spec_to_dict(spec))
    return docs


def _ordered_names(ids, prefix: str, rng: random.Random) -> dict:
    """New two-digit names for ``ids`` that sort in the same order."""
    fresh = sorted(rng.sample(range(10, 100), len(ids)))
    return {old: f"{prefix}{i}" for old, i in zip(sorted(ids), fresh)}


def renamed_copy(doc: dict, rng: random.Random, lengths: dict | None = None):
    """A spec document for the same cover under new names, and the lengths
    carried along.

    Renames vertices and edges, keeping their sorted order, so the program
    does the same work and every verdict, count and identity is unchanged,
    while the text of every input and output is not.  Changes that keep the
    answers but not the work were tried and left out: reordering the ids,
    reversing edges, or switching voltages by vertex potentials changed the
    time of single ``zeta-free`` inputs by up to 1.7x (the Bareiss
    determinants grow differently), and a group automorphism changed the
    Smith form time of one ``cover-jacobian`` input by 4x.
    """
    vnames = _ordered_names(doc["vertices"], "n", rng)
    enames = _ordered_names([row["id"] for row in doc["edges"]], "a", rng)
    edges = [
        {"id": enames[row["id"]], "src": vnames[row["src"]], "tgt": vnames[row["tgt"]]}
        for row in doc["edges"]
    ]
    out = {
        "vertices": [vnames[v] for v in doc["vertices"]],
        "edges": edges,
        "group": doc["group"],
        "dilation": {vnames[v]: gens for v, gens in doc["dilation"].items()},
        "voltage": {enames[e]: eta for e, eta in doc["voltage"].items()},
    }
    new_lengths = None if lengths is None else {enames[e]: n for e, n in lengths.items()}
    return out, new_lengths


def _theta_doc(n: int) -> dict:
    """The three-edge theta graph at Z/n with voltages 0, 1, 3."""
    return {
        "vertices": ["u", "w"],
        "edges": [{"id": e, "src": "u", "tgt": "w"} for e in ("e", "f", "g")],
        "group": {"cyclic": [n]},
        "dilation": {},
        "voltage": {"f": [1], "g": [3]},
    }


def _dumbbell_doc(n: int) -> dict:
    """specs/dumbbell_z6.json at Z/n (6 | n): dilation of order 2 and 3 at the ends."""
    return {
        "vertices": ["v1", "v2"],
        "edges": [
            {"id": "e1", "src": "v1", "tgt": "v1"},
            {"id": "e2", "src": "v2", "tgt": "v2"},
            {"id": "e3", "src": "v1", "tgt": "v2"},
        ],
        "group": {"cyclic": [n]},
        "dilation": {"v1": [[n // 2]], "v2": [[n // 3]]},
        "voltage": {"e1": [1], "e2": [1]},
    }


def _icosahedron_quotient_doc(n: int) -> dict:
    """specs/icosahedron.json at Z/n: six base edges, both ends fully dilated."""
    edges = [("e1", "v1", "v2"), ("e2", "v2", "v2"), ("e3", "v2", "v3"),
             ("e4", "v2", "v3"), ("e5", "v3", "v3"), ("e6", "v3", "v4")]
    return {
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [{"id": e, "src": s, "tgt": t} for e, s, t in edges],
        "group": {"cyclic": [n]},
        "dilation": {"v1": [[1]], "v4": [[1]]},
        "voltage": {"e2": [1], "e3": [1], "e5": [1]},
    }


def _exact(c):
    return [c.conductor, list(c.coeffs)] if isinstance(c, CycInt) else c


def _cover_edges(doc: dict) -> int:
    order = 1
    for n in doc["group"]["cyclic"]:
        order *= n
    return len(doc["edges"]) * order


def _cover_vertices(spec) -> int:
    return sum(spec.group.order // spec.dilation_at(v).order for v in spec.base.vertices)


# -- workloads --------------------------------------------------------------


class Workload:
    """Inputs from a seed, one timed call per input, and a check of its result.

    The inputs are seeded renamed copies of a fixed population of covers.
    Independent random covers would make the seed choose how much work a
    run does: 64 covers of the ``verify-random`` distribution vary by 20-27%
    in total time from one seed to the next (one cover can take 40% of a
    pass), and the voltages of a Z/30 theta cover move its ``verify`` time
    by 50%.  That is more than any usable regression bound.  A copy keeps
    the work and every answer, and changes every id, so the seed still
    reaches all code that depends on the text of an input.

    Each population is sized so that one pass over it takes about 1.5-2.5 s
    on the machine where the benchmark was written.  A 30 s run then times
    every input a dozen times or more, and its fastest time is steady.
    """

    name = ""
    uses_files = False  # True: the timed call is a CLI command on a spec file

    def population(self) -> list[tuple[str, dict, dict | None]]:
        """(name, spec document, edge lengths or None) for each input."""
        raise NotImplementedError

    def generate(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for name, doc, lengths in self.population():
            copy, copy_lengths = renamed_copy(doc, rng, lengths)
            items.append(Item(name, copy, _cover_edges(copy), lengths=copy_lengths))
        return items

    def materialize(self, items: list[Item], workdir: Path) -> None:
        """Parse each document, and write it out where the CLI reads it."""
        for i, item in enumerate(items):
            item.spec = specfile.parse_spec(item.doc)
            if self.uses_files and item.path is None:
                path = workdir / f"{i:03d}-{item.name}.json"
                path.write_text(specfile.serialize_spec(item.spec), encoding="utf-8")
                item.path = str(path)

    def expect(self, items: list[Item]) -> None:
        """Record each input's known answer (once per run, after set-up)."""

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, raw, want_output: bool) -> Verdict:
        raise NotImplementedError

    def input_fingerprint(self, items: list[Item]) -> str:
        h = hashlib.sha256()
        for item in items:
            h.update(specfile.serialize_spec(item.spec).encode())
            if item.lengths is not None:
                h.update(json.dumps(item.lengths, sort_keys=True).encode())
            h.update(b"\0")
        return h.hexdigest()


def _kirchhoff(spec) -> int:
    return jacobians.kirchhoff_count(covers.build_cover(spec).total)


class VerifyRandom(Workload):
    """``verify_main_theorem`` on random covers, decided at the polynomial level.

    The population is the first ``count`` covers of the acceptance suite
    (its distribution and seed): at most 5 vertices, 8 edges, group order 6,
    and at most 50,000 cover trees, so every cover is decided by exact
    enumeration.  Measured on the seed code (one core): p50 about 6 ms, the
    slowest cover 0.5-1 s, a pass of 40 covers 1.4-2.8 s.
    """

    name = "verify-random"
    POPULATION_SEED = 20260809
    TREE_CAP = 50_000

    def __init__(self, count: int = 40):
        self.count = count

    def population(self):
        docs = random_cover_docs(
            random.Random(self.POPULATION_SEED), self.count, free=False,
            max_vertices=5, max_edges=8, group_orders=RANDOM_GROUPS, tree_cap=self.TREE_CAP,
        )
        return [(f"random{i}", doc, None) for i, doc in enumerate(docs)]

    def expect(self, items):
        for item in items:
            item.expected["trees"] = _kirchhoff(item.spec)

    def run(self, item):
        return verify.verify_main_theorem(item.spec)

    def check(self, item, report, want_output):
        trees = item.expected["trees"]
        ok = report.equal and report.lhs_tree_count == report.rhs_tree_count == trees
        if report.polynomial_checked:
            ok = (
                ok
                and report.lhs_polynomial == report.rhs_polynomial
                and report.lhs_polynomial.value_at_ones() == trees
            )
        output = json.dumps(report.summary(), sort_keys=True) if want_output else ""
        return Verdict(ok, report.polynomial_checked, output,
                       "" if ok else f"verify disagrees with {trees} trees")


class _CliWorkload(Workload):
    uses_files = True

    def __init__(self):
        self.runner = CliRunner()

    def invoke(self, *args: str):
        return self.runner.invoke(cli.main, list(args), catch_exceptions=False)


def _dumbbell_z6_polynomial() -> list:
    x1, x2, x3 = (MultiPoly.variable(v) for v in ("e1", "e2", "e3"))
    poly = 12 * x1**5 * x2**4 * x3**2 * (x1 + 4 * x3) * (x2 + 3 * x3) ** 2
    return poly.to_jsonable()


class VerifyCyclic(_CliWorkload):
    """``galois-trees verify`` on cyclic covers above the enumeration cap.

    Every generated cover has more than 200,000 trees, so the verdict is at
    the count level and the time goes into per-character basis enumeration
    (one ``build_cover`` per character), the cyclotomic product and the
    division of the right-hand side.  The bundled specs run as shipped.
    Measured ``verify`` costs (seed code, one core): theta at Z/12, Z/24,
    Z/36 about 0.05, 0.5, 2 s; the dumbbell at Z/12, Z/24, Z/30 about
    0.03, 0.2, 0.5 s; theta at Z/40 up to 5 s and at Z/80 about 60 s.
    The ladders stop at 24 so that a pass takes about 2 s.
    The six-edge icosahedron base took 19 s at Z/12, so it appears only as
    the bundled Z/5 spec.
    """

    name = "verify-cyclic"
    THETA_LADDER = (12, 18, 24)
    DUMBBELL_LADDER = (12, 18, 24)  # multiples of 6
    # bundled spec -> published tree count (None: counted by Kirchhoff)
    BUNDLED = {"icosahedron.json": 5_184_000, "dumbbell_z6.json": 960, "theta_z2.json": None}

    def __init__(self, specs_dir: Path):
        super().__init__()
        self.specs_dir = specs_dir

    def population(self):
        return [(f"theta-z{n}", _theta_doc(n), None) for n in self.THETA_LADDER] + [
            (f"dumbbell-z{n}", _dumbbell_doc(n), None) for n in self.DUMBBELL_LADDER
        ]

    def generate(self, seed):
        items = super().generate(seed)
        for fname in self.BUNDLED:
            path = self.specs_dir / fname
            doc = json.loads(path.read_text(encoding="utf-8"))
            items.append(Item(fname, doc, _cover_edges(doc), path=str(path)))
        return items

    def expect(self, items):
        for item in items:
            if item.name in self.BUNDLED:
                item.expected["trees"] = self.BUNDLED[item.name] or _kirchhoff(item.spec)
                continue
            item.expected["trees"] = _kirchhoff(item.spec)
            if item.expected["trees"] <= verify.DEFAULT_ENUMERATION_CAP:
                raise ValueError(f"{item.name} is not above the enumeration cap")
        dumbbell = next(i for i in items if i.name == "dumbbell_z6.json")
        dumbbell.expected["polynomial"] = _dumbbell_z6_polynomial()

    def run(self, item):
        return self.invoke("verify", item.path)

    def check(self, item, result, want_output):
        out = json.loads(result.stdout)
        trees = item.expected["trees"]
        ok = (
            result.exit_code == 0
            and out["equal"] is True
            and out["lhs_tree_count"] == out["rhs_tree_count"] == trees
        )
        if out["polynomial_checked"]:
            ok = ok and out["lhs_polynomial"] == out["rhs_polynomial"]
        if item.name == "icosahedron.json":
            ok = ok and len(out["characters"]) == 4
            ok = ok and all(c["basis_count"] == 13 for c in out["characters"])
        if "polynomial" in item.expected:
            ok = ok and out["polynomial_checked"]
            ok = ok and out["lhs_polynomial"] == item.expected["polynomial"]
        return Verdict(ok, out["polynomial_checked"], result.stdout if want_output else "",
                       "" if ok else f"verify output disagrees with {trees} trees")


class ZetaFree(Workload):
    """Zeta and L-function determinant identities on free covers.

    Per input: the pulled-back metric zeta reciprocal of the total graph
    equals the product of the metric L reciprocals over all characters; the
    two-term and three-term forms agree at unit lengths; and the twisted
    Laplacian determinant equals the scalar matroid weight.  The population
    is the first ``count`` covers of the criterion-5 suite (its distribution
    and seed: at most 3 vertices, 4 edges, group order 4, edge lengths 1-2).
    Measured cost: about 0.2 s per cover, 1.3 s at most; 2-3 s a pass.
    """

    name = "zeta-free"
    POPULATION_SEED = 987654

    def __init__(self, count: int = 8):
        self.count = count

    def population(self):
        rng = random.Random(self.POPULATION_SEED)
        out = []
        for i in range(self.count):
            (doc,) = random_cover_docs(
                rng, 1, free=True, max_vertices=3, max_edges=4,
                group_orders=((2,), (3,), (4,), (2, 2)),
            )
            lengths = {row["id"]: rng.randint(1, 2) for row in doc["edges"]}
            out.append((f"free{i}", doc, lengths))
        return out

    def run(self, item):
        spec, lengths = item.spec, item.lengths
        cover = covers.build_cover(spec)
        rhos = groups.characters(spec.group)
        pulled = {te: lengths[be] for te, be in cover.edge_map.items()}
        lhs = zeta.metric_zeta_reciprocal(cover.total, pulled)
        rhs = UniPoly.const(1)
        for rho in rhos:
            rhs = rhs * zeta.metric_l_reciprocal(spec, rho, lengths)
        two_three = zeta.metric_zeta_reciprocal(spec.base) == zeta.ihara_zeta_reciprocal(spec.base)
        two_three = two_three and all(
            zeta.metric_l_reciprocal(spec, rho) == zeta.artin_l_reciprocal_three_term(spec, rho)
            for rho in rhos
        )
        dets = [
            (zeta.twisted_laplacian_det(spec, rho), matroids.weight_polynomial(spec, rho).scalar)
            for rho in rhos
            if not rho.is_trivial()
        ]
        return lhs, rhs, two_three, dets

    def check(self, item, raw, want_output):
        lhs, rhs, two_three, dets = raw
        failed = [
            name
            for name, holds in (
                ("zeta factorization", lhs == rhs),
                ("two-term = three-term", two_three),
                ("det = scalar weight", all(d == w for d, w in dets)),
            )
            if not holds
        ]
        output = ""
        if want_output:
            output = json.dumps(
                {"zeta": [_exact(c) for c in lhs.coeffs], "dets": [_exact(d) for d, _ in dets]}
            )
        return Verdict(not failed, None, output, ", ".join(failed))


class CoverJacobian(_CliWorkload):
    """``galois-trees build`` and ``jacobian --cover`` on large cyclic covers.

    The only workload where the N^2 action tables of ``build_cover``, the
    Smith form of a cover Laplacian and ``degree_sequence`` carry the time,
    and where peak memory moves.  Measured (seed code, one core), both
    commands together: theta at Z/40, Z/60, Z/80 about 0.06, 0.16, 0.35 s;
    the icosahedron base at Z/30, Z/40, Z/50 about 0.14, 0.2, 0.45 s and at
    Z/60 about 0.9 s, so its rungs stop at 50 and a pass takes about 1.5 s.
    Every cover here has at most 160 vertices, so its Kirchhoff cofactor
    (the known answer) costs under a second.
    """

    name = "cover-jacobian"
    THETA_RUNGS = (40, 60, 80)
    ICOSAHEDRON_RUNGS = (30, 40, 50)

    def population(self):
        return [(f"theta-z{n}", _theta_doc(n), None) for n in self.THETA_RUNGS] + [
            (f"icosahedron-z{n}", _icosahedron_quotient_doc(n), None)
            for n in self.ICOSAHEDRON_RUNGS
        ]

    def expect(self, items):
        for item in items:
            spec = item.spec
            vertices = _cover_vertices(spec)
            edges = len(spec.base.edges) * spec.group.order
            item.expected.update(
                vertices=vertices, edges=edges, genus=edges - vertices + 1,
                order=_kirchhoff(spec),
            )

    def run(self, item):
        return self.invoke("build", item.path), self.invoke("jacobian", item.path, "--cover")

    def check(self, item, raw, want_output):
        build, jac = raw
        want = item.expected
        shape = json.loads(build.stdout)
        group = json.loads(jac.stdout)
        product = 1
        for d in group["invariant_factors"]:
            product *= d
        ok = (
            build.exit_code == 0
            and jac.exit_code == 0
            and len(shape["total"]["vertices"]) == want["vertices"]
            and len(shape["total"]["edges"]) == want["edges"]
            and shape["connected"] is True
            and shape["genus"] == want["genus"]
            and sum(shape["degree_sequence"]) == 2 * want["edges"]
            and group["order"] == product == want["order"]
        )
        output = build.stdout + jac.stdout if want_output else ""
        return Verdict(ok, None, output, "" if ok else "cover or Smith order disagrees")


def make_workloads(root: Path) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (VerifyRandom(), VerifyCyclic(root / "specs"), ZetaFree(), CoverJacobian())
    }
