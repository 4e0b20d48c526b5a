"""File formats and machine-readable serialization.

All formats are JSON. Games list their players, actions, states, initial
state, one named topology block with explicit transition rows, and a nested
priority map topology -> player -> state -> integer. Profiles list, per
player, the memory states, the initial memory and the update/act tables as
explicit row lists. Target files map each player to a list of topologies.

Writers emit canonical JSON (sorted keys, fixed indentation) so identical
inputs produce byte-identical output, and every emitted document re-parses
through the loaders in this module.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import InputError, Lasso, Mtg, validate
from .equilibria import DeviationWitness, EquilibriumReport
from .reductions import COALITION, DEVIATOR, RESOLVER, START, HState, PartialInfoGame
from .strategy import MooreStrategy, Profile


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object at the top level")
    players = tuple(_require_list(doc, "players", where))
    actions = tuple(_require_list(doc, "actions", where))
    states = tuple(_require_list(doc, "states", where))
    initial = _require(doc, "initial", where)
    tops = _require(doc, "topologies", where)
    prios = _require(doc, "priorities", where)
    if not isinstance(tops, list) or not all(isinstance(b, dict) for b in tops):
        raise InputError(f"{where}: topologies must be a list of objects")
    if not isinstance(prios, dict):
        raise InputError(f"{where}: priorities must be a nested object")
    transition = {}
    names = []
    for block in tops:
        name = _require(block, "name", f"{where}.topologies")
        names.append(name)
        for row in _require(block, "transitions", f"{where}.topologies[{name}]"):
            prof = tuple(_require(row, "profile", f"{where} transition row"))
            transition[(name, _require(row, "from", "transition row"), prof)] = \
                _require(row, "to", "transition row")
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
    game = Mtg(players=players, states=states, initial=initial, actions=actions,
               topologies=tuple(names), transition=transition, priority=priority)
    defects = validate(game)
    if defects:
        raise InputError(f"{where}: invalid game:\n  " + "\n  ".join(defects))
    return game


def load_game(path) -> Mtg:
    return game_from_dict(load_json(path), where=str(path))


def save_game(game: Mtg, path) -> None:
    Path(path).write_text(dumps_canonical(game_to_dict(game)), encoding="utf-8")


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
        table[(row["memory"], row["state"])] = row[value]
    return table


def strategy_from_dict(doc: dict, game: Mtg, where: str = "strategy") -> MooreStrategy:
    memory = tuple(_require_list(doc, "memory", where))
    init = _require(doc, "init", where)
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
    strats = []
    for p in game.players:
        if p not in per_player:
            raise InputError(f"{where}: missing strategy for player {p!r}")
        strats.append(strategy_from_dict(per_player[p], game, where=f"{where}.{p}"))
    return Profile(tuple(strats))


def load_profile(path, game: Mtg) -> Profile:
    return profile_from_dict(load_json(path), game, where=str(path))


def save_profile(profile: Profile, game: Mtg, path) -> None:
    Path(path).write_text(dumps_canonical(profile_to_dict(profile, game)), encoding="utf-8")


# ---------------------------------------------------------------------------
# target tuples


def targets_to_dict(targets: dict[str, frozenset[str]], game: Mtg) -> dict:
    return {p: [t for t in game.topologies if t in targets[p]] for p in game.players}


def targets_from_dict(doc: dict, game: Mtg, where: str = "targets") -> dict[str, frozenset[str]]:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object mapping players to topology lists")
    out = {}
    for p in game.players:
        if p not in doc:
            raise InputError(f"{where}: missing target set for player {p!r}")
        if not isinstance(doc[p], list):
            raise InputError(f"{where}: target set for {p!r} must be a list of topologies, "
                             f"got {type(doc[p]).__name__}")
        ts = frozenset(doc[p])
        if not ts <= set(game.topologies):
            raise InputError(f"{where}: unknown topologies for {p}: {sorted(ts)}")
        out[p] = ts
    for p in doc:
        if p not in game.players:
            raise InputError(f"{where}: unknown player {p!r}")
    return out


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
           "wintop": {p: [t for t in game.topologies if t in report.wintop[p]]
                      for p in game.players},
           "witness": witness}
    if report.topology is not None:
        doc["topology"] = report.topology
    return doc


def report_from_dict(doc: dict, game: Mtg, where: str = "report") -> EquilibriumReport:
    witness = None
    if doc.get("witness") is not None:
        w = doc["witness"]
        witness = DeviationWitness(player=w["player"], targets=frozenset(w["targets"]),
                                   strategy=strategy_from_dict(w["strategy"], game, where))
    return EquilibriumReport(kind=_require(doc, "kind", where),
                             verdict=_require(doc, "verdict", where),
                             wintop={p: frozenset(ts) for p, ts in doc["wintop"].items()},
                             witness=witness, topology=doc.get("topology"))


# ---------------------------------------------------------------------------
# challenge-game instances


def _h_state_id(q, game: Mtg) -> str:
    if q == START:
        return START
    T = "" if q.T is None else "+".join(t for t in game.topologies if t in q.T)
    bits = [q.s, q.p] + ([T] if q.T is not None else []) + [q.t, str(int(q.b))]
    return "|".join(bits)


def h_to_dict(h: PartialInfoGame) -> dict:
    game = h.game
    ids = {q: _h_state_id(q, game) for q in h.states}
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
            if h.kind == "cne":
                p, T, t = action
                entry = {"from": START,
                         "deviator": {"player": p,
                                      "challenge": [x for x in game.topologies if x in T]},
                         "resolver": t, "to": ids[q2]}
            else:
                p, t = action
                entry = {"from": START, "deviator": {"player": p, "topology": t},
                         "to": ids[q2]}
        else:
            prof, a = action
            entry = {"from": ids[q], "coalition": list(prof), "deviator": a,
                     "to": ids[q2]}
        transitions.append(entry)
    transitions.sort(key=lambda e: json.dumps(e, sort_keys=True))
    observations = {p: [sorted(ids[q] for q in cls) for cls in h.observations[p]]
                    for p in h.players}
    return {"kind": h.kind, "players": list(h.players),
            "targets": targets_to_dict(h.targets, game),
            "game": game_to_dict(game), "initial": START,
            "states": states, "transitions": transitions,
            "observations": observations}


def h_from_dict(doc: dict, where: str = "reduction") -> PartialInfoGame:
    game = game_from_dict(_require(doc, "game", where), where=f"{where}.game")
    kind = _require(doc, "kind", where)
    by_id: dict[str, object] = {}
    rank = {}
    states = []
    for entry in _require(doc, "states", where):
        if entry["id"] == START:
            q = START
        else:
            T = frozenset(entry["T"]) if "T" in entry else None
            q = HState(s=entry["s"], p=entry["p"], T=T, t=entry["t"], b=entry["b"])
        by_id[entry["id"]] = q
        rank[q] = entry["rank"]
        states.append(q)
    transitions = {}
    for entry in _require(doc, "transitions", where):
        q2 = by_id[entry["to"]]
        if entry["from"] == START:
            dev = entry["deviator"]
            if kind == "cne":
                action = (dev["player"], frozenset(dev["challenge"]), entry["resolver"])
            else:
                action = (dev["player"], dev["topology"])
            transitions[(START, action)] = q2
        else:
            q = by_id[entry["from"]]
            transitions[(q, (tuple(entry["coalition"]), entry["deviator"]))] = q2
    observations = {p: [frozenset(by_id[i] for i in cls) for cls in obs]
                    for p, obs in _require(doc, "observations", where).items()}
    targets = targets_from_dict(_require(doc, "targets", where), game, where)
    players = tuple(_require(doc, "players", where))
    expected = (COALITION, DEVIATOR, RESOLVER) if kind == "cne" else (COALITION, DEVIATOR)
    if players != expected:
        raise InputError(f"{where}: unexpected player roles {players}")
    return PartialInfoGame(kind=kind, players=players, states=states, initial=START,
                           transitions=transitions, rank=rank,
                           observations=observations, game=game, targets=targets)


def load_h(path) -> PartialInfoGame:
    return h_from_dict(load_json(path), where=str(path))


def save_h(h: PartialInfoGame, path) -> None:
    Path(path).write_text(dumps_canonical(h_to_dict(h)), encoding="utf-8")
