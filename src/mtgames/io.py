"""File formats and machine-readable serialization.

All formats are JSON. Games list their players, actions, states, initial
state, one named topology block with explicit transition rows, and a nested
priority map topology -> player -> state -> integer. Profiles list, per
player, the memory states, the initial memory and the update/act tables as
explicit row lists. Target files map each player to a list of topologies.

Loaders refuse a repeated object key or table row rather than keep the last.
A challenge-game document is rebuilt from its kind, game and targets, and must
be exactly the rebuild's document.
Every document written, to stdout or to a file, goes through ``dumps_canonical``:
canonical JSON (sorted keys, fixed indentation), so identical inputs produce
byte-identical output that re-parses through the loaders in this module.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import zip_longest
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .core import InputError, Lasso, Mtg, validate
from .equilibria import DeviationWitness, EquilibriumReport
from .reductions import START, PartialInfoGame, build_cne_game, build_gne_game
from .strategy import MooreStrategy, Profile


def data_path(name: str):
    """Filesystem path of a bundled data file (context-manager free for CPython)."""
    return resources.files("mtgames.data").joinpath(name)


_encode_leaf = json.JSONEncoder().encode  # C-encoded numbers, booleans and null


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    An indent sends ``json`` to its pure-Python encoder. This walks containers
    once and writes each leaf with ``json``'s C encoders, which raise json's own
    ``TypeError`` for a value json refuses. A container holding itself is not caught.
    """
    return _text(obj, "\n") + "\n"


def _text(obj, newline: str) -> str:
    """``obj`` as JSON, its inner lines indented two spaces past ``newline``'s."""
    if type(obj) is int:  # the common leaves by exact type: ints here, strings inline below
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):  # the C encoder converts, or refuses, a non-string key as json does
        parts = [(_encode_str(k) if type(k) is str else _encode_leaf({k: 0})[1:-4]) + ": "
                 + (_encode_str(v) if type(v) is str else _text(v, inner))
                 for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        parts = [_encode_str(v) if type(v) is str else _text(v, inner) for v in obj]
    else:
        return _encode_str(obj) if isinstance(obj, str) else _encode_leaf(obj)
    start, end = "{}" if isinstance(obj, dict) else "[]"
    return start + inner + ("," + inner).join(parts) + newline + end if parts else start + end


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; a failed write is an input error naming the path."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def load_json(path) -> dict:
    def unique(pairs: list) -> dict:  # json alone keeps a repeated key's last value
        if len(doc := dict(pairs)) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise InputError(f"{path}: duplicate key {key!r} in one object")
        return doc
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # the files are UTF-8 JSON
        raise InputError(f"{path}: not valid JSON: {exc}") from exc


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise InputError(f"{where}: missing required key {key!r}")
    return doc[key]


def _require_list(doc: dict, key: str, where: str) -> list:
    value = _require(doc, key, where)
    if not isinstance(value, list):
        raise InputError(f"{where}: {key} must be a list, got {type(value).__name__}")
    return value


def _name(value, what: str, where: str) -> str:
    """``value`` if it is a string: every identifier in the files is a name."""
    if not isinstance(value, str):
        raise InputError(f"{where}: {what} must be a string, got {type(value).__name__}")
    return value


def _require_name(doc: dict, key: str, where: str) -> str:
    return _name(_require(doc, key, where), key, where)


def _require_names(doc: dict, key: str, where: str) -> tuple[str, ...]:
    return tuple(_name(v, f"{key} entry", where) for v in _require_list(doc, key, where))


def _member(value, names, what: str, where: str) -> str:
    """``value`` if it is one of ``names``."""
    if _name(value, what, where) not in names:
        raise InputError(f"{where}: unknown {what} {value!r}")
    return value


def _members(value, names, what: str, where: str) -> frozenset[str]:
    """The list ``value`` of distinct ``names``, as a set."""
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list of {what} names, got {type(value).__name__}")
    members = frozenset(_member(v, names, what, where) for v in value)
    if len(members) < len(value):
        raise InputError(f"{where}: repeats the {what} {max(value, key=value.count)!r}")
    return members


# ---------------------------------------------------------------------------
# games


def game_to_dict(game: Mtg) -> dict:
    topologies = []
    for t in game.topologies:
        rows = []
        for s in game.states:
            for prof in game.action_profiles():
                rows.append({"from": s, "profile": list(prof),
                             "to": game.transition[(t, s, prof)]})
        topologies.append({"name": t, "transitions": rows})
    priorities = {t: {p: {s: game.priority[(t, p, s)] for s in game.states}
                      for p in game.players}
                  for t in game.topologies}
    return {"players": list(game.players), "actions": list(game.actions),
            "states": list(game.states), "initial": game.initial,
            "topologies": topologies, "priorities": priorities}


def game_from_dict(doc: dict, where: str = "game") -> Mtg:
    game = parse_game(doc, where)
    defects = validate(game)
    if defects:
        raise InputError(f"{where}: invalid game: " + "; ".join(defects))
    return game


def parse_game(doc: dict, where: str = "game") -> Mtg:
    """The game ``doc`` describes, checked for its JSON shape only."""
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object at the top level")
    players = _require_names(doc, "players", where)
    actions = _require_names(doc, "actions", where)
    states = _require_names(doc, "states", where)
    initial = _require_name(doc, "initial", where)
    tops = _require(doc, "topologies", where)
    prios = _require(doc, "priorities", where)
    if not isinstance(tops, list) or not all(isinstance(b, dict) for b in tops):
        raise InputError(f"{where}: topologies must be a list of objects")
    if not isinstance(prios, dict):
        raise InputError(f"{where}: priorities must be a nested object")
    transition = {}
    names = []
    for block in tops:
        name = _require_name(block, "name", f"{where}.topologies")
        names.append(name)
        for row in _require_list(block, "transitions", f"{where}.topologies[{name}]"):
            at = f"{where}.topologies[{name}] transition row"
            prof = _require_names(row, "profile", at)
            key = (name, _require_name(row, "from", at), prof)
            if key in transition:
                raise InputError(f"{at}: second row for ({key[1]}, {', '.join(prof)})")
            transition[key] = _require_name(row, "to", at)
    priority = {}
    for t, by_player in prios.items():
        if not isinstance(by_player, dict) or not all(isinstance(x, dict)
                                                      for x in by_player.values()):
            raise InputError(f"{where}: priorities[{t}] must map players to state maps")
        for p, by_state in by_player.items():
            for s, v in by_state.items():
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputError(f"{where}: priority of ({t}, {p}, {s}) is not an integer")
                priority[(t, p, s)] = v
    return Mtg(players=players, states=states, initial=initial, actions=actions,
               topologies=tuple(names), transition=transition, priority=priority)


def load_game(path) -> Mtg:
    return game_from_dict(load_json(path), where=str(path))


def save_game(game: Mtg, path) -> None:
    write_text(path, dumps_canonical(game_to_dict(game)))


# ---------------------------------------------------------------------------
# strategies and profiles


def strategy_to_dict(strat: MooreStrategy, game: Mtg) -> dict:
    update = [{"memory": m, "state": s, "next": strat.update[(m, s)]}
              for m in strat.memory for s in game.states]
    act = [{"memory": m, "state": s, "action": strat.act[(m, s)]}
           for m in strat.memory for s in game.states]
    return {"memory": list(strat.memory), "init": strat.init,
            "update": update, "act": act}


def _table_rows(doc: dict, key: str, value: str, where: str) -> dict:
    """A strategy table's rows as ``{(memory, state): row[value]}``."""
    fields = ("memory", "state", value)
    table = {}
    for i, row in enumerate(_require_list(doc, key, where)):
        if not isinstance(row, dict) or any(f not in row for f in fields):
            raise InputError(f"{where}: {key} row {i} must be an object with keys "
                             + ", ".join(map(repr, fields)))
        cell = (_name(row["memory"], f"{key} row {i} memory", where),
                _name(row["state"], f"{key} row {i} state", where))
        if cell in table:
            raise InputError(f"{where}: {key} row {i} repeats the row for {cell}")
        table[cell] = row[value]
    return table


def strategy_from_dict(doc: dict, game: Mtg, where: str = "strategy") -> MooreStrategy:
    memory = _require_names(doc, "memory", where)
    init = _require_name(doc, "init", where)
    update = _table_rows(doc, "update", "next", where)
    act = _table_rows(doc, "act", "action", where)
    strat = MooreStrategy(memory=memory, init=init, update=update, act=act)
    strat.check(game, where)
    return strat


def profile_to_dict(profile: Profile, game: Mtg) -> dict:
    return {"players": {p: strategy_to_dict(strat, game)
                        for p, strat in zip(game.players, profile.by_player)}}


def profile_from_dict(doc: dict, game: Mtg, where: str = "profile") -> Profile:
    per_player = _require(doc, "players", where)
    if not isinstance(per_player, dict):
        raise InputError(f"{where}: players must map players to strategies")
    strats = []
    for p in game.players:
        if p not in per_player:
            raise InputError(f"{where}: missing strategy for player {p!r}")
        strats.append(strategy_from_dict(per_player[p], game, where=f"{where}.{p}"))
    if not set(per_player) <= set(game.players):
        raise InputError(f"{where}: unknown players {sorted(set(per_player) - set(game.players))}")
    return Profile(tuple(strats))


def load_profile(path, game: Mtg) -> Profile:
    return profile_from_dict(load_json(path), game, where=str(path))


def save_profile(profile: Profile, game: Mtg, path) -> None:
    write_text(path, dumps_canonical(profile_to_dict(profile, game)))


# ---------------------------------------------------------------------------
# target tuples


def targets_to_dict(targets: dict[str, frozenset[str]], game: Mtg) -> dict:
    return {p: [t for t in game.topologies if t in targets[p]] for p in game.players}


def targets_from_dict(doc: dict, game: Mtg, where: str = "targets") -> dict[str, frozenset[str]]:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object mapping players to topology lists")
    for p in game.players:
        if p not in doc:
            raise InputError(f"{where}: missing target set for player {p!r}")
    for p in doc:
        if p not in game.players:
            raise InputError(f"{where}: unknown player {p!r}")
    return {p: _members(doc[p], game.topologies, "topology", f"{where}: target set for {p!r}")
            for p in game.players}


def load_targets(path, game: Mtg) -> dict[str, frozenset[str]]:
    return targets_from_dict(load_json(path), game, where=str(path))


# ---------------------------------------------------------------------------
# lassos and reports


def lasso_to_dict(lasso: Lasso) -> dict:
    return {"prefix": list(lasso.prefix), "cycle": list(lasso.cycle),
            "topology": lasso.topology, "pretty": lasso.pretty()}


def report_to_dict(report: EquilibriumReport, game: Mtg) -> dict:
    witness = None
    if report.witness is not None:
        witness = {"player": report.witness.player,
                   "targets": [t for t in game.topologies if t in report.witness.targets],
                   "strategy": strategy_to_dict(report.witness.strategy, game)}
    doc = {"kind": report.kind, "verdict": report.verdict,
           "wintop": targets_to_dict(report.wintop, game),
           "witness": witness}
    if report.topology is not None:
        doc["topology"] = report.topology
    return doc


def report_from_dict(doc: dict, game: Mtg, where: str = "report") -> EquilibriumReport:
    kind = _member(_require(doc, "kind", where), ("ne", "gne", "cne"), "report kind", where)
    if not isinstance(verdict := _require(doc, "verdict", where), bool):
        raise InputError(f"{where}: verdict must be bool, got {type(verdict).__name__}")
    wintop = targets_from_dict(_require(doc, "wintop", where), game, f"{where}.wintop")
    topology = None
    if kind == "ne":
        topology = _member(_require(doc, "topology", where), game.topologies, "topology", where)
    w, at = _require(doc, "witness", where), f"{where}.witness"
    if (w is None) != verdict:
        raise InputError(f"{where}: a report has a witness exactly when its verdict is false")
    witness = None if w is None else DeviationWitness(
        player=_member(_require(w, "player", at), game.players, "player", at),
        targets=_members(_require(w, "targets", at), game.topologies, "topology", at),
        strategy=strategy_from_dict(_require(w, "strategy", at), game, at))
    return EquilibriumReport(kind, verdict, wintop, witness, topology)


# ---------------------------------------------------------------------------
# challenge-game instances


def h_to_dict(h: PartialInfoGame) -> dict:
    game = h.game
    ids = h.ids
    states = []
    for q in h.states:
        if q == START:
            states.append({"id": START, "rank": h.rank[q]})
        else:
            entry = {"id": ids[q], "s": q.s, "p": q.p, "t": q.t, "b": q.b,
                     "rank": h.rank[q]}
            if q.T is not None:
                entry["T"] = [t for t in game.topologies if t in q.T]
            states.append(entry)
    transitions = []
    for (q, action), q2 in h.transitions.items():
        if q == START:
            p, T, t = action
            if T is None:
                entry = {"from": START, "deviator": {"player": p, "topology": t}, "to": ids[q2]}
            else:  # a conservative instance: the resolver names the topology
                entry = {"from": START,
                         "deviator": {"player": p,
                                      "challenge": [x for x in game.topologies if x in T]},
                         "resolver": t, "to": ids[q2]}
        else:
            prof, a = action
            entry = {"from": ids[q], "coalition": list(prof), "deviator": a,
                     "to": ids[q2]}
        transitions.append(entry)
    transitions.sort(key=json.JSONEncoder(sort_keys=True).encode)  # one encoder for all rows
    observations = {p: [sorted(ids[q] for q in cls) for cls in h.observations[p]]
                    for p in h.players}
    return {"kind": h.kind, "players": list(h.players),
            "targets": targets_to_dict(h.targets, game),
            "game": game_to_dict(game), "initial": START,
            "states": states, "transitions": transitions,
            "observations": observations}


def h_from_dict(doc: dict, where: str = "reduction") -> PartialInfoGame:
    """The challenge game of ``doc``, which must be exactly what ``h_to_dict`` writes.

    Only the kind, the game and the targets are read. The instance is rebuilt
    from them, and ``doc`` must equal the rebuild's document, JSON types included.
    """
    kind = _member(_require(doc, "kind", where), ("gne", "cne"), "reduction kind", where)
    game = game_from_dict(_require(doc, "game", where), where=f"{where}.game")
    targets = targets_from_dict(_require(doc, "targets", where), game, f"{where}.targets")
    h = build_cne_game(game, targets) if kind == "cne" else build_gne_game(game, targets)
    if (path := _first_difference(doc, h_to_dict(h), where)) is not None:
        raise InputError(f"{path}: differs from the {kind} challenge game of its game and targets")
    return h


def _first_difference(got, want, path: str) -> str | None:
    """The path of the first node of ``got`` unlike ``want``'s, a ``true`` unlike a ``1``."""
    if type(got) is not type(want):
        return path
    if isinstance(want, dict):
        pairs = ((f"{path}.{k}", got.get(k, _ABSENT), want.get(k, _ABSENT))
                 for k in sorted(got.keys() | want.keys()))
    elif isinstance(want, list):
        pairs = ((f"{path}[{i}]", g, w)
                 for i, (g, w) in enumerate(zip_longest(got, want, fillvalue=_ABSENT)))
    else:
        return None if got == want else path
    found = (_first_difference(g, w, at) for at, g, w in pairs)
    return next((at for at in found if at is not None), None)


_ABSENT = object()  # stands in for a missing key or list item: unlike every JSON value


def load_h(path) -> PartialInfoGame:
    return h_from_dict(load_json(path), where=str(path))


def save_h(h: PartialInfoGame, path) -> None:
    write_text(path, dumps_canonical(h_to_dict(h)))
