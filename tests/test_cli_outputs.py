"""Pinned CLI output: exit code and sha256 of the output on each bundled spec,
of ``build`` and ``jacobian --cover`` on two covers of benchmark size, of
``verify`` and ``matroid`` at the tops of the verify-cyclic ladder, and of
``zeta`` and ``lfunction`` on a tree base.

A refactor that claims unchanged behaviour must leave every digest below as
it is.  To re-record after a deliberate output change, run this file as a
script from the repository root and paste the printed tables into PINNED,
PINNED_LARGE and PINNED_TREE.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from galois_trees.cli import main
from helpers import SPEC_DIR

SPECS = sorted(p.name for p in SPEC_DIR.glob("*.json"))


def _first_edge(name: str) -> str:
    return json.loads((SPEC_DIR / name).read_text())["edges"][0]["id"]


def command_lines(name: str) -> dict[str, list[str]]:
    path = str(SPEC_DIR / name)
    return {
        "build": ["build", path],
        "jacobian": ["jacobian", path],
        "jacobian --cover": ["jacobian", "--cover", path],
        "jacpoly": ["jacpoly", path],
        "jacpoly --cover": ["jacpoly", "--cover", path],
        "matroid --character 1": ["matroid", "--character", "1", path],
        "zeta --max-length 6": ["zeta", "--max-length", "6", path],
        "zeta --max-length 12": ["zeta", "--max-length", "12", path],
        "zeta --lengths first=2": ["zeta", "--lengths", f"{_first_edge(name)}=2", path],
        "zeta --lengths first=50": ["zeta", "--lengths", f"{_first_edge(name)}=50", path],
        "lfunction --character 1": ["lfunction", "--character", "1", path],
        "resolve": ["resolve", path],
        "verify": ["verify", path],
    }


def _spec_doc(vertices, edges, n, dilation, voltage) -> dict:
    return {
        "vertices": vertices,
        "edges": [{"id": e, "src": s, "tgt": t} for e, s, t in edges],
        "group": {"cyclic": [n]},
        "dilation": dilation,
        "voltage": voltage,
    }


# the theta graph at Z/80 (voltages 0, 1, 3: a free cover with 160 vertices)
# and the icosahedron quotient at Z/50 (both ends fully dilated: 102 vertices);
# theta and the dumbbell at Z/24 (23 characters each, most of them in Galois
# orbits of several conjugates)
LARGE_SPECS = {
    "theta_z80": _spec_doc(
        ["u", "w"], [("e", "u", "w"), ("f", "u", "w"), ("g", "u", "w")], 80,
        {}, {"f": [1], "g": [3]},
    ),
    "icosahedron_z50": _spec_doc(
        ["v1", "v2", "v3", "v4"],
        [("e1", "v1", "v2"), ("e2", "v2", "v2"), ("e3", "v2", "v3"),
         ("e4", "v2", "v3"), ("e5", "v3", "v3"), ("e6", "v3", "v4")],
        50, {"v1": [[1]], "v4": [[1]]}, {"e2": [1], "e3": [1], "e5": [1]},
    ),
    "theta_z24": _spec_doc(
        ["u", "w"], [("e", "u", "w"), ("f", "u", "w"), ("g", "u", "w")], 24,
        {}, {"f": [1], "g": [3]},
    ),
    "dumbbell_z24": _spec_doc(
        ["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v2", "v2"), ("e3", "v1", "v2")],
        24, {"v1": [[12]], "v2": [[8]]}, {"e1": [1], "e2": [1]},
    ),
}


def large_command_lines(name: str, path: str) -> dict[str, list[str]]:
    if name in ("theta_z24", "dumbbell_z24"):
        return {
            "matroid --character 1": ["matroid", "--character", "1", path],
            "verify": ["verify", path],
        }
    return {"build": ["build", path], "jacobian --cover": ["jacobian", "--cover", path]}


def run_large(name: str, workdir) -> dict[str, tuple[int, str]]:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(LARGE_SPECS[name]))
    return {label: run_pinned(args) for label, args in large_command_lines(name, str(path)).items()}


# a path of three vertices over Z/3, voltage 1 on one edge: a genus-0 base,
# where the three-term reciprocals take their tree branch
TREE_SPEC = _spec_doc(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "c")], 3, {}, {"e": [1]})


def run_tree(workdir) -> dict[str, tuple[int, str]]:
    path = workdir / "path_z3.json"
    path.write_text(json.dumps(TREE_SPEC))
    return {
        "zeta": run_pinned(["zeta", str(path)]),
        "lfunction --character 1": run_pinned(["lfunction", "--character", "1", str(path)]),
    }


def run_pinned(args: list[str]) -> tuple[int, str]:
    result = CliRunner().invoke(main, args)
    return result.exit_code, hashlib.sha256(result.output.encode()).hexdigest()


PINNED = {
    'dumbbell_z6.json': {
        'build': (0, '0e8c3ed272781601b19ff5a7fc7308ce37fad0c0a83971df8bc3af8d70eac909'),
        'jacobian': (0, '094c68c5d15e5b6ef9e28f3887d9e68f0672e76fa65932af1af2214ae9688eea'),
        'jacobian --cover': (0, '1510dd6ef5b31e4720d6564b895374c73bd8b00f2cf7a47e6c340f062df26c73'),
        'jacpoly': (0, 'd56c0c54ff585e204b3ccb7e70269dd5ab4a210975cc8b2482d9dd7b3163c87d'),
        'jacpoly --cover': (0, 'e3bb6e42f5ce7122e343dd654f0247a4172da171f3048a7321df667228c7f648'),
        'matroid --character 1': (0, '38b32249d93d38695f38437561fc0f70d2307d2813a795e7cebc43f204d14d05'),
        'zeta --max-length 6': (0, '63dd5262e16143513ee4d83d5d6a3cbe4788e4dc458e8fe403c4e715f3cd7f49'),
        'zeta --max-length 12': (0, '01f4411f733cbcd15675e6f0763a675c119114545c99b21751ae9d67346c2452'),
        'zeta --lengths first=2': (0, 'c53730c16e310dd572a22fa6808cf0cb8ee56ced0b9aede775f1a92f43592ef0'),
        'zeta --lengths first=50': (0, 'b0f0f24f1aafc042dc63e5379a3991f43db7670b4b760c6ff8b21d9426066bda'),
        'lfunction --character 1': (2, '30605fea500bd7a8b058107641e12124c7e1f567f85cb4c51b53c1ef340a22e7'),
        'resolve': (0, '71ac59772e5932f682f3f9f8c6118d6e21275efec06d37c5c4dacf76a11b1bb9'),
        'verify': (0, '9a65d0f47a9c11b148f07b08faa87a9d6fdd556177e7b19dae58d4b741ad0927'),
    },
    'icosahedron.json': {
        'build': (0, 'fee842f4a8bd3409e0faf9a63bacc58d3b7e8b012322f4188e586bc7aa3d393b'),
        'jacobian': (0, '9b88a07431de855bb1ed90d1edac9efcb7e39ede84bf7f45e009fc8062ad1736'),
        'jacobian --cover': (0, 'abbb327a33577a886cf9c4881d6701f45cafe6a4b3c12555f429fe8db11dc4d7'),
        'jacpoly': (0, 'e2575687344bf02b6884ed7060c3091faef5037f79e2c0433c5fa487df8e2286'),
        'jacpoly --cover': (0, 'a4084f2860a2025d55379035f156e140c81492108008e2e3dc1f1afdd4551992'),
        'matroid --character 1': (0, '9be8555ef63a87d80ba7c56f7eaf76487f3d7cf13633f2c2c156b569f3d6b903'),
        'zeta --max-length 6': (0, '8f130464bac14c4e8897550de573f20e8752bf409ac4a02522623999efe11c1b'),
        'zeta --max-length 12': (0, '7dd40799c974007663c4995ddd90b7ff6c6c880d65197814ea50a566c82b554d'),
        'zeta --lengths first=2': (0, 'c0d18923d71eda68a4cfbc96ffe1ce2a9c92116f71979817bf9c9cc9c19d9d0e'),
        'zeta --lengths first=50': (0, 'c0d18923d71eda68a4cfbc96ffe1ce2a9c92116f71979817bf9c9cc9c19d9d0e'),
        'lfunction --character 1': (2, '30605fea500bd7a8b058107641e12124c7e1f567f85cb4c51b53c1ef340a22e7'),
        'resolve': (0, '12c6a9af5f006f8c6077ed49d0ed90fbb14789a8d8eaec41456fa90d2147cf27'),
        'verify': (0, '4fd2d42fbf95d5c823a32159ce2a1cebe47056fb689a218f0a2fbb3bc700a3e2'),
    },
    'theta.json': {
        'build': (0, '5e742b106dea1ac42f038e9cb525a3d490ca410e22ede3b5497353fc1d4c18bb'),
        'jacobian': (0, '3ea88ec2985078e50f2148ac151b9ee5adbdace450f1972ffeab7a2ddc091ff4'),
        'jacobian --cover': (0, '3ea88ec2985078e50f2148ac151b9ee5adbdace450f1972ffeab7a2ddc091ff4'),
        'jacpoly': (0, 'ab5373a6fe2a5b950fb88eb9a81eab77dbfcfcde59f85e12fd3c4e465c5e6b47'),
        'jacpoly --cover': (0, 'ab5373a6fe2a5b950fb88eb9a81eab77dbfcfcde59f85e12fd3c4e465c5e6b47'),
        'matroid --character 1': (2, 'deb2a46c21258dcb3696343616ee3793772ca514e52a5553da2d4c4bdc1fc1cb'),
        'zeta --max-length 6': (0, 'a7e4b6a781bc6d7a0893c9024950d7adbe759a3b9f326466da2a22a4bbefdd7a'),
        'zeta --max-length 12': (0, '4c50e9284abc3b67d5b611ff7f7892462c1ccf7a5ad2fb9ea08d152ff6fde2a8'),
        'zeta --lengths first=2': (0, 'f09921bd78ca9135a2eb8ccf8d4ae2d6083bcf47993182c5396a221df7fc8c3f'),
        'zeta --lengths first=50': (0, '74ccde35ebf65ae4f5c2a627a0da12cb7a1067ffff705a61afb894c4b74dd72c'),
        'lfunction --character 1': (2, 'deb2a46c21258dcb3696343616ee3793772ca514e52a5553da2d4c4bdc1fc1cb'),
        'resolve': (0, 'c025b9b248f47be5ac270d5d3b492344cd953ee3bd679405678d55ebcd448b33'),
        'verify': (2, 'ed3838e819c15b67a2557bf08e690cd3f6977166cae3944da49606e12e24a332'),
    },
    'theta_z2.json': {
        'build': (0, 'cc4d5699e804e41a215d92235d8a19cd10d31aadcf9de9292fe888d4ed49b579'),
        'jacobian': (0, '3ea88ec2985078e50f2148ac151b9ee5adbdace450f1972ffeab7a2ddc091ff4'),
        'jacobian --cover': (0, 'd32b0d04c29c88bea7f6a78325b52a855ed4019da3db29db810a66c12c1b9051'),
        'jacpoly': (0, 'ab5373a6fe2a5b950fb88eb9a81eab77dbfcfcde59f85e12fd3c4e465c5e6b47'),
        'jacpoly --cover': (0, '5ed6ec83fb6c7806355f0b53225ec2bc2a814e97f95e3c51ad60c3e287378af3'),
        'matroid --character 1': (0, 'a39ef48b63fb9413b16f5eca0415f16983b4243a3f8e0192e33f3a982ed6a511'),
        'zeta --max-length 6': (0, 'a7e4b6a781bc6d7a0893c9024950d7adbe759a3b9f326466da2a22a4bbefdd7a'),
        'zeta --max-length 12': (0, '4c50e9284abc3b67d5b611ff7f7892462c1ccf7a5ad2fb9ea08d152ff6fde2a8'),
        'zeta --lengths first=2': (0, 'f09921bd78ca9135a2eb8ccf8d4ae2d6083bcf47993182c5396a221df7fc8c3f'),
        'zeta --lengths first=50': (0, '74ccde35ebf65ae4f5c2a627a0da12cb7a1067ffff705a61afb894c4b74dd72c'),
        'lfunction --character 1': (0, 'be6b02d37b503e5d816860520ae70805871a4b58f59924f65f73f8c5bdc10a93'),
        'resolve': (0, '17e8c1b4cc3edc6c84e5683deed632bb4f3fc7f0e70fdf6c099b782ce44f0ca7'),
        'verify': (0, '90f22946b3801a954bd3a38ac39bc8c7b320a0c77bf186903d8610d6a4116f6f'),
    },
}


PINNED_LARGE = {
    'dumbbell_z24': {
        'matroid --character 1': (0, '6ee8ce0478f50eb1943b598571413831536b7def878f38eb9cb9ec99fd72050c'),
        'verify': (0, '9918b3f05fee977c59213312554ce6aab23d599ad3846afb69dd57175c47d6fd'),
    },
    'icosahedron_z50': {
        'build': (0, '0268fb0571b973cbe76e03ab4ef6868594c983fec72a3db13b9f90d7275b3de9'),
        'jacobian --cover': (0, 'd1b4cbdddd4aec27125eb993ab785310a0d2de0578ab0d94015c0c5d49a440a6'),
    },
    'theta_z24': {
        'matroid --character 1': (0, '56e0f97d78c134d92fb59449452b1d1355ea7fdaa8d79d03549686202d46775a'),
        'verify': (0, '058dc2f0c9dba0b4d2dd627ad73de5d53a790b62a5cb4bf75c6f5e4d3a7ef503'),
    },
    'theta_z80': {
        'build': (0, '6c7d63e3e85c7f352425af7c8b58e11f1de44d112256b0a515455ed9d0d916bb'),
        'jacobian --cover': (0, '060655d0f5c4a369bab29af0cca7cb3bfaaae49d3ca103c66326553e2ef473c6'),
    },
}


PINNED_TREE = {
    'zeta': (0, '755ace7aa659def06f1a4dd522a6f5e41ad900984462265bda943845a2ff1b13'),
    'lfunction --character 1': (0, '51c3d0a60e82716e51b259a2d7e24830a749f65d044ca0511f50de9ff4af17b2'),
}


@pytest.mark.parametrize("name", SPECS)
def test_cli_output_is_pinned(name):
    got = {label: run_pinned(args) for label, args in command_lines(name).items()}
    assert got == PINNED[name]


@pytest.mark.parametrize("name", sorted(LARGE_SPECS))
def test_cli_output_at_benchmark_size_is_pinned(name, tmp_path):
    assert run_large(name, tmp_path) == PINNED_LARGE[name]


def test_cli_output_on_a_tree_base_is_pinned(tmp_path):
    assert run_tree(tmp_path) == PINNED_TREE


def _print_table(title: str, table: dict) -> None:
    print(f"{title} = {{")
    for name, rows in table.items():
        print(f"    {name!r}: {{")
        for label, (code, digest) in rows.items():
            print(f"        {label!r}: ({code}, {digest!r}),")
        print("    },")
    print("}")


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    _print_table("PINNED", {
        name: {label: run_pinned(args) for label, args in command_lines(name).items()}
        for name in SPECS
    })
    with tempfile.TemporaryDirectory() as tmp:
        _print_table("PINNED_LARGE", {name: run_large(name, Path(tmp)) for name in sorted(LARGE_SPECS)})
        print("PINNED_TREE = {")
        for label, (code, digest) in run_tree(Path(tmp)).items():
            print(f"    {label!r}: ({code}, {digest!r}),")
        print("}")
