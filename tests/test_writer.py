"""The canonical writer and what the CLI loads to run a command.

``io.dumps_canonical`` must equal ``json.dumps(obj, sort_keys=True, indent=2)
+ "\\n"`` on every JSON value, which is the reference here. The files the
commands write are pinned by hash in ``data/pinned-files.json``, made by the
writer it replaced. Commands that do not search must run without numpy.
"""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtgames
from mtgames import cli
from mtgames import io as mio
from mtgames.core import Mtg
from mtgames.generate import random_mtg, random_profile
from mtgames.io import data_path
from mtgames.reductions import build_cne_game, build_gne_game

PINNED_FILES = Path(__file__).resolve().parent / "data" / "pinned-files.json"


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# text that needs every kind of escape: quotes, backslashes, control
# characters, non-ASCII and non-BMP code points
TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f/aZ é\u2028\uffff\U0001d517'), max_size=6)
LEAVES = (st.none() | st.booleans() | st.sampled_from([0, 1, -1, 2 ** 63, -(2 ** 70)])
          | st.integers() | st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1e300])
          | TEXT)
VALUES = st.recursive(LEAVES, lambda inner: (st.lists(inner, max_size=4)
                                             | st.lists(inner, max_size=4).map(tuple)
                                             | st.dictionaries(TEXT, inner, max_size=4)),
                      max_leaves=30)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(VALUES)
def test_writer_equals_the_reference(value):
    assert mio.dumps_canonical(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], [{}]],
    [True, 1, False, 0, None], {"x": True, "y": 1, "z": False, "w": 0},
    {"é": "\U0001d517", 'q"\\': 'v"\\', "\x01": "\u2028"},
    [-0.0, 0.0, 1.5, -2.5e-300, 10 ** 30, -(10 ** 30)],
    [float("nan"), float("inf"), float("-inf")],
    {1: "a", 2.5: "b"}, {None: 2}, {False: [1], True: 0}, {float("nan"): 1},
    "plain", 7, None,
])
def test_writer_equals_the_reference_on_corner_cases(value):
    assert mio.dumps_canonical(value) == reference(value)


@pytest.mark.parametrize("value", [
    {1, 2}, [b"bytes"], {"a": object()}, {(1, 2): "tuple key"}, {"a": 1, 2: "mixed keys"},
    {True: 1, None: 2},
])
def test_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        reference(value)
    with pytest.raises(TypeError) as got:
        mio.dumps_canonical(value)
    assert str(got.value) == str(want.value)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["cne", "gne"]))
def test_challenge_game_transitions_sort_as_their_json(seed, kind):
    rng = random.Random(seed)
    game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=rng.randint(1, 3),
                      n_topologies=rng.randint(1, 3))
    game = _renamed(game, seed)
    targets = {p: frozenset(t for t in game.topologies if rng.random() < 0.5)
               for p in game.players}
    build = build_cne_game if kind == "cne" else build_gne_game
    rows = mio.h_to_dict(build(game, targets))["transitions"]
    assert rows == sorted(rows, key=lambda e: json.dumps(e, sort_keys=True))


# ---------------------------------------------------------------------------
# written files, pinned by hash


def _renamed(game: Mtg, seed: int) -> Mtg:
    """``game`` with every identifier renamed to text that needs escapes."""
    names = {p: f'jugador "{i}"-{seed}' for i, p in enumerate(game.players)}
    names |= {s: f"état\\{i}\t" for i, s in enumerate(game.states)}
    names |= {a: "αβγδ"[i] for i, a in enumerate(game.actions)}
    names |= {t: f"\U0001d517{i}\u2028" for i, t in enumerate(game.topologies)}

    def rename(ids):
        return tuple(names[x] for x in ids)
    return Mtg(players=rename(game.players), states=rename(game.states),
               initial=names[game.initial], actions=rename(game.actions),
               topologies=rename(game.topologies),
               transition={(names[t], names[s], rename(prof)): names[s2]
                           for (t, s, prof), s2 in game.transition.items()},
               priority={(names[t], names[p], names[s]): v
                         for (t, p, s), v in game.priority.items()})


def written_files(out: Path) -> dict[str, str]:
    """File name -> sha256 of every file the pinned commands and writers produce."""
    router, tt = str(data_path("router.game")), str(data_path("router-all.tt"))
    for argv in (["reduce", "cne", router, "--targets", tt, "--out", str(out / "h-cne.json")],
                 ["reduce", "gne", router, "--targets", tt, "--out", str(out / "h-gne.json")],
                 ["symmetrize", str(data_path("router-base.game")),
                  "--out", str(out / "router-sym.game")],
                 ["find", "gne", router, "--memory", "2",
                  "--profile-out", str(out / "router-gne.profile")]):
        assert cli.main(argv) == 0
    for seed in range(3):
        rng = random.Random(seed)
        game = _renamed(random_mtg(rng, n_players=2, n_states=3, n_topologies=2), seed)
        mio.save_game(game, out / f"random-{seed}.game")
        mio.save_profile(random_profile(rng, game, 2), game, out / f"random-{seed}.profile")
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def test_written_files_keep_their_bytes(tmp_path, capsys):
    assert written_files(tmp_path) == json.loads(PINNED_FILES.read_text())


# ---------------------------------------------------------------------------
# numpy only where it runs

NUMPY_FREE = [
    ["validate", "{router}"],
    ["outcome", "{router}", "{profile}", "--topology", "A"],
    ["wintop", "{router}", "{profile}"],
    ["check", "ne", "{router}", "{profile}", "--topology", "A"],
    *(["check", kind, "{router}", "{profile}"] for kind in ("gne", "cne")),
    *(["reduce", kind, "{router}", "--targets", "{tt}", "--out", "{out}/h.json"]
      for kind in ("cne", "gne")),
    ["symmetrize", "{base}", "--out", "{out}/sym.game"],
]
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from mtgames import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, "numpy" in sys.modules]))
"""


def _loads_numpy(argvs: list[list[str]], out: Path) -> tuple[list[int], bool]:
    names = {"router": "router.game", "profile": "turn-taking.profile", "tt": "router-all.tt",
             "base": "router-base.game"}
    paths = {key: Path(str(data_path(name))).resolve() for key, name in names.items()}
    argvs = [[arg.format(**paths, out=out) for arg in argv] for argv in argvs]
    src = str(Path(mtgames.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", PROBE, src, json.dumps(argvs)],
                         capture_output=True, text=True, timeout=120, check=True)
    codes, loaded = json.loads(run.stdout)
    return codes, loaded


def test_commands_that_do_not_search_import_no_numpy(tmp_path):
    assert _loads_numpy(NUMPY_FREE, tmp_path) == ([0] * len(NUMPY_FREE), False)


def test_find_imports_numpy(tmp_path):
    argvs = [["validate", "{router}"], ["find", "gne", "{router}", "--memory", "1"]]
    assert _loads_numpy(argvs, tmp_path) == ([0, 0], True)


def test_every_exported_name_resolves():
    for name in mtgames.__all__:
        assert getattr(mtgames, name) is not None, name
    from mtgames import SearchResult, find_gne
    from mtgames.search import SearchResult as result_class
    from mtgames.search import find_gne as find
    assert (find_gne, SearchResult) == (find, result_class)
    with pytest.raises(AttributeError, match="no_such_name"):
        mtgames.no_such_name
