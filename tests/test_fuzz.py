"""Fuzz the file inputs: a mutated document is rejected in one line, or read as before.

Each example mutates one of the bundled router files: it deletes a key,
changes a value's JSON type, puts an unknown identifier in place of a name or
a key, or gives a profile the wrong number of players or a transition row the
wrong number of actions. The commands that read that file then run through
``cli.main``. Each must either exit 1 with exactly one ``error:`` line on
stderr and no traceback, or print the same stdout with the same exit code as
on the unmutated files. ``validate`` has one more documented outcome: a game
that parses but breaks an invariant is reported as ``"ok": false`` with its
defects, and every other command then rejects that game.

The two library-only loaders, ``io.report_from_dict`` (a ``check`` report)
and ``io.h_from_dict`` (the ``reduce --out`` JSON), get the same mutations of
documents written from the router game: each must raise ``InputError`` or
return what it returns on the unmutated document.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtgames import cli
from mtgames import io as mio
from mtgames.core import InputError
from mtgames.equilibria import check_cne, check_ne
from mtgames.io import data_path
from mtgames.reductions import build_cne_game, build_gne_game
from mtgames.strategy import Profile, constant_strategy

UNKNOWN = "zz-unknown"
FILES = {"game": "router.game", "profile": "turn-taking.profile", "tt": "router-all.tt"}
DOCS = {kind: json.loads(data_path(name).read_text()) for kind, name in FILES.items()}
# a value of every JSON type, the replacements for a value of another type
TYPED_VALUES = [0, 1.5, True, None, UNKNOWN, [], {}]


def _json_type(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


def _commands(kind: str, path: str) -> list[list[str]]:
    paths = {k: str(data_path(name)) for k, name in FILES.items()}
    paths[kind] = path
    game, profile, tt = paths["game"], paths["profile"], paths["tt"]
    commands = {
        "game": [["validate", game], ["wintop", game, profile], ["check", "gne", game, profile]],
        "profile": [["wintop", game, profile], ["check", "gne", game, profile]],
        "tt": [["find", "target", game, "--targets", tt, "--memory", "1"]],
    }
    return commands[kind]


def _run(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON tree, the root included; read, never mutate."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


ROUTER = mio.load_game(data_path("router.game"))
_TARGETS = {"blue": frozenset({"A"}), "red": frozenset({"A", "B"})}
_ZERO = Profile(tuple(constant_strategy(ROUTER, "0") for _ in ROUTER.players))
_TURN_TAKING = mio.load_profile(data_path("turn-taking.profile"), ROUTER)
LOADERS = {
    "ne-report": functools.partial(mio.report_from_dict, game=ROUTER),
    "cne-report": functools.partial(mio.report_from_dict, game=ROUTER),
    "gne-h": mio.h_from_dict,
    "cne-h": mio.h_from_dict,
}
LOADER_DOCS = {
    # a refutation with a witness and a topology; a verdict with neither
    "ne-report": mio.report_to_dict(check_ne(ROUTER, "B", _ZERO), ROUTER),
    "cne-report": mio.report_to_dict(check_cne(ROUTER, _TURN_TAKING), ROUTER),
    "gne-h": mio.h_to_dict(build_gne_game(ROUTER, _TARGETS)),
    "cne-h": mio.h_to_dict(build_cne_game(ROUTER, _TARGETS)),
}
NODES = {kind: list(_nodes(doc)) for kind, doc in {**DOCS, **LOADER_DOCS}.items()}


@functools.cache
def _baseline(kind: str) -> list[tuple[int, str, str]]:
    """The commands' results on the unmutated files."""
    return [_run(args) for args in _commands(kind, str(data_path(FILES[kind])))]


@st.composite
def mutations(draw, docs=DOCS):
    """(document kind, mutated document, what was done), for a document of ``docs``."""
    kind = draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[kind])
    nodes = NODES[kind]
    how = draw(st.sampled_from(["delete key", "retype", "unknown name", "unknown key"]
                               + (["wrong length"] if kind in ("game", "profile") else [])))
    if how == "delete key":
        path, _ = draw(st.sampled_from([(p, v) for p, v in nodes
                                        if p and isinstance(_at(docs[kind], p[:-1]), dict)]))
        del _at(doc, path[:-1])[path[-1]]
    elif how == "retype":
        path, value = draw(st.sampled_from(nodes))
        new = draw(st.sampled_from([v for v in TYPED_VALUES
                                    if _json_type(v) != _json_type(value)]))
        if not path:
            return kind, new, f"{how} root -> {new!r}"
        _at(doc, path[:-1])[path[-1]] = new
    elif how == "unknown name":
        path, _ = draw(st.sampled_from([(p, v) for p, v in nodes
                                        if p and isinstance(v, str)]))
        _at(doc, path[:-1])[path[-1]] = UNKNOWN
    elif how == "unknown key":
        # a new key beside the others, or an existing key renamed
        path, _ = draw(st.sampled_from([(p, v) for p, v in nodes
                                        if isinstance(v, dict) and v]))
        value = _at(doc, path)
        key = draw(st.sampled_from(sorted(value)))
        if draw(st.booleans()):
            value[UNKNOWN] = copy.deepcopy(value[key])
        else:
            value[UNKNOWN] = value.pop(key)
        path = path + (key,)
    elif kind == "profile":
        players = doc["players"]
        if draw(st.booleans()):
            del players[draw(st.sampled_from(sorted(players)))]
        else:
            players[UNKNOWN] = copy.deepcopy(players["blue"])
        path = ("players",)
    else:
        path = draw(st.sampled_from([p for p, v in nodes if p and p[-1] == "profile"]))
        actions = _at(doc, path)
        if draw(st.booleans()):
            actions.pop()
        else:
            actions.append(actions[0])
    return kind, doc, f"{how} at {list(path)}"


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_mutated_inputs_fail_in_one_line_or_read_the_same(case):
    kind, doc, what = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / FILES[kind]
        path.write_text(json.dumps(doc))
        defective = False
        for args, before in zip(_commands(kind, str(path)), _baseline(kind)):
            code, out, err = _run(args)
            assert "Traceback" not in err, (what, args, err)
            if code == 1:
                lines = err.splitlines()
                assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), \
                    (what, args, err)
            elif args[0] == "validate" and code == 0 and not json.loads(out)["ok"]:
                assert json.loads(out)["defects"], (what, out)
                defective = True
            else:
                assert not defective and (code, out) == before[:2], (what, args, out, err)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations(LOADER_DOCS))
def test_mutated_library_documents_are_rejected_or_read_the_same(case):
    kind, doc, what = case
    load = LOADERS[kind]
    try:
        got = load(doc)
    except InputError:
        return
    assert got == load(LOADER_DOCS[kind]), what
