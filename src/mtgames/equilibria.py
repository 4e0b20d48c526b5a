"""Exact equilibrium verification for finite-memory profiles.

Three solution concepts are checked for a given profile:

* NE in one topology: no losing player has any deviation winning there.
* GNE: no player has a deviation that wins a currently-losing topology.
* CNE: no player has a deviation making her winning-topology set a strict
  superset of the current one.

Every check asks the same kind of question, in the order of
:func:`deviation_questions`: can this player, against the fixed co-strategies,
win every topology of this target set? :func:`can_deviator_win_set` answers
every such question one way, on the knowledge arena of the question: its
nodes track the current state, the set of target topologies still consistent
with the observed history, and the co-players' memories. Because a deviating
strategy is one function of the state history, topologies with identical
observed histories must receive identical deviator actions; the knowledge set
captures exactly that, so verification is exact for deviating strategies of
unbounded memory. The set shrinks strictly wherever the play splits, so each
level of the arena is a one-player graph and the conjunction solver decides
it in polynomial time. A single target (every NE and GNE question, and a CNE
question when the deviator wins nothing yet) never splits: its arena is the
one-player residual game, and a deviation wins topology t of the game exactly
when it wins the single game t.

Public functions check their profile, deviator and targets once; ``_``-prefixed
helpers assume checked input. A check validates its profile in ``wintop_map``
only; each witness a helper builds is checked once, then replayed. One check
never asks the same (player, targets) question twice, so it caches only
through a :class:`DeviationOracle` its caller passes, to share answers across
checks; without one it asks each question directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .arena import SEEKER, SPOILER, Arena
from .core import InputError, Mtg
from .solvers import WitnessMachine, _solve_conjunction
from .strategy import MooreStrategy, Profile, _winners, wintop_map


_tuple_new = tuple.__new__  # builds a NamedTuple from a tuple without a Python-level call


class KnowledgeNode(NamedTuple):
    """Deviator's information state: game state, consistent targets, co-memories."""

    state: str
    consistent: frozenset[str]
    memories: tuple[str, ...]

    def __repr__(self) -> str:
        tops = "{" + ",".join(sorted(self.consistent)) + "}"
        return f"K({self.state}, {tops}, mem={list(self.memories)})"


class _ChoiceNode(NamedTuple):
    """Midpoint where the deviator's action splits the consistent targets; Spoiler picks one."""

    base: KnowledgeNode
    action: str

    def __repr__(self) -> str:
        return f"C({self.base!r}, a={self.action})"


@dataclass(frozen=True)
class DeviationWitness:
    player: str
    targets: frozenset[str]
    strategy: MooreStrategy


@dataclass
class EquilibriumReport:
    kind: str
    verdict: bool
    wintop: dict[str, frozenset[str]]
    witness: DeviationWitness | None
    topology: str | None = None


def _question(game: Mtg, profile: Profile, deviator: str, targets) -> frozenset[str]:
    """``targets`` as a frozenset, once ``profile``, ``deviator`` and ``targets`` are checked."""
    targets = frozenset(targets)
    if deviator not in game.players:
        raise InputError(f"unknown player {deviator!r}")
    if not targets:
        raise InputError("target topology set must be nonempty")
    if not targets <= set(game.topologies):
        raise InputError(f"unknown topologies in targets: {sorted(targets - set(game.topologies))}")
    profile.check(game)
    return targets


def build_knowledge_arena(game: Mtg, profile: Profile, deviator: str,
                          targets: frozenset[str]) -> Arena:
    """Arena for the question: can ``deviator`` win all of ``targets`` at once?

    Seeker nodes are knowledge nodes, where the deviator picks an action. The
    consistent set holds the targets whose play agrees with the states seen so
    far; a topology outside the targets has no coordinate, so it is not
    tracked. An action whose successor state is the same in every consistent
    target leads straight to the next knowledge node. An action that splits
    them leads to a Spoiler midpoint, which picks the observation branch the
    play follows. The priority vector has one coordinate per target, valued
    with the deviator's priority while the topology is consistent and forced
    to 0 (satisfied) once it drops out: a dropped topology follows a different
    branch, where its own condition is evaluated. With one target the set
    never splits, and the arena is the one-player residual game.
    """
    return _knowledge_arena(game, profile, deviator, _question(game, profile, deviator, targets))


def build_residual_arena(game: Mtg, profile: Profile, deviator: str,
                         topology: str) -> Arena:
    """The one-player game the deviator faces in ``topology``: its knowledge arena."""
    return build_knowledge_arena(game, profile, deviator, frozenset({topology}))


def _knowledge_arena(game: Mtg, profile: Profile, deviator: str,
                     targets: frozenset[str]) -> Arena:
    di = game.players.index(deviator)
    co = [*range(di), *range(di + 1, len(game.players))]
    co_strats = profile.by_player[:di] + profile.by_player[di + 1:]
    tlist = sorted(targets, key=game.topologies.index)
    actions, transition, priority = game.actions, game.transition, game.priority
    nodes: list = []
    index: dict[KnowledgeNode, int] = {}
    owner: list[int] = []
    succ: list[list[int]] = []
    labels: list[list] = []
    priorities: list[tuple] = []  # per target, 0 where it is no longer consistent

    def knowledge(key: tuple) -> int:
        """Append the knowledge node ``key`` = (state, consistent, memories); return its index."""
        node = _tuple_new(KnowledgeNode, key)
        vi = index[node] = len(nodes)
        nodes.append(node)
        owner.append(SEEKER)
        succ.append([])
        labels.append(list(actions))
        s, consistent, _ = key
        priorities.append(tuple([priority[(t, deviator, s)] if t in consistent else 0
                                 for t in tlist]))
        return vi

    knowledge((game.initial, frozenset(tlist), tuple([s.init for s in co_strats])))
    prof = [""] * len(game.players)
    for vi, node in enumerate(nodes):
        if owner[vi] == SPOILER:
            continue
        s, consistent, mems = node
        first, *rest = consistent
        for ci, strat, mem in zip(co, co_strats, mems):
            prof[ci] = strat.act[(mem, s)]
        new_mems = tuple([strat.update[(mem, s)] for strat, mem in zip(co_strats, mems)])
        row = succ[vi]
        for a in actions:
            prof[di] = a
            prof_t = tuple(prof)
            s2 = transition[(first, s, prof_t)]
            for t in rest:
                if transition[(t, s, prof_t)] != s2:
                    break
            else:  # every consistent target moves to s2
                key = (s2, consistent, new_mems)
                w = index.get(key)
                row.append(knowledge(key) if w is None else w)
                continue
            groups: dict[str, list[str]] = {}
            for t in consistent:
                groups.setdefault(transition[(t, s, prof_t)], []).append(t)
            mid = len(nodes)
            row.append(mid)
            nodes.append(_ChoiceNode(node, a))
            owner.append(SPOILER)
            succ.append([])
            labels.append([None] * len(groups))
            priorities.append(priorities[vi])  # a Spoiler midpoint carries its node's priorities
            for s2 in sorted(groups, key=game.states.index):
                key = (s2, frozenset(groups[s2]), new_mems)
                succ[mid].append(index[key] if key in index else knowledge(key))
    return Arena(nodes=nodes, owner=owner, succ=succ, labels=labels,
                 priorities=priorities, initial=0, k=len(tlist))


def _machine_to_moore(game: Mtg, arena: Arena, machine: WitnessMachine) -> MooreStrategy:
    """Transport a winning arena strategy into a Moore strategy over game states.

    A Moore memory is the arena node the play has just moved to, with the
    plan position: a knowledge node reached by a Seeker edge, or a Spoiler
    midpoint, which the next observed state resolves. A state the plan does
    not expect cannot be observed in a target topology; there the strategy
    plays a fixed default action and keeps its memory, so the tables are total.
    """
    default = game.actions[0]
    nodes, owner, succ, labels = arena.nodes, arena.owner, arena.succ, arena.labels
    choice, moves = machine.choice, machine.moves
    ids = {(arena.initial, 0): "w0"}
    order = [(arena.initial, 0, "w0")]
    update: dict[tuple[str, str], str] = {}
    act: dict[tuple[str, str], str] = {}
    for w, record, mid in order:
        for s in game.states:
            cell = (mid, s)
            act[cell] = default
            update[cell] = mid
        for v in succ[w] if owner[w] == SPOILER else (w,):
            edge = choice[(record, v)]
            nxt = succ[v][edge]
            r = moves.get((record, v), record)
            if owner[nxt] == SPOILER:
                r = moves.get((r, nxt), r)
            name = ids.get((nxt, r))
            if name is None:
                name = ids[(nxt, r)] = f"w{len(order)}"
                order.append((nxt, r, name))
            cell = (mid, nodes[v].state)
            act[cell] = labels[v][edge]
            update[cell] = name
    return MooreStrategy(memory=tuple(ids.values()), init="w0", update=update, act=act)


def can_deviator_win_set(game: Mtg, profile: Profile, deviator: str,
                         targets: frozenset[str]) -> tuple[bool, MooreStrategy | None]:
    """Does some deviating strategy (any memory) win every target topology at once?

    Decided on the knowledge arena of the question by the conjunction solver,
    whose witness is transported to a Moore strategy. On success the witness
    is checked well formed and replayed in each target topology, where it must
    win, otherwise an internal error is raised.
    """
    return _can_win_set(game, profile, deviator, _question(game, profile, deviator, targets))


def _can_win_set(game: Mtg, profile: Profile, deviator: str,
                 targets: frozenset[str]) -> tuple[bool, MooreStrategy | None]:
    arena = _knowledge_arena(game, profile, deviator, targets)
    res = _solve_conjunction(arena)
    if not res.winner:
        return False, None
    strat = _machine_to_moore(game, arena, res.witness)
    strat.check(game, "deviation witness")
    deviated = profile.substitute(game.players.index(deviator), strat)
    for t in targets:
        if deviator not in _winners(game, t, deviated):
            raise AssertionError(f"deviation witness failed replay: wanted "
                                 f"{sorted(targets)}, lost {t}")
    return True, strat


class DeviationOracle:
    """Memoizing front end for :func:`can_deviator_win_set`.

    The answer depends only on the deviator, the co-players' strategies and
    the target set, never on the deviator's own current strategy; results are
    cached on that key so scans over many profiles share work.
    """

    def __init__(self, game: Mtg):
        self.game = game
        self._cache: dict = {}

    def can_win(self, profile: Profile, deviator: str,
                targets: frozenset[str]) -> tuple[bool, MooreStrategy | None]:
        return self._ask(profile, deviator, _question(self.game, profile, deviator, targets))

    def _ask(self, profile: Profile, deviator: str,
             targets: frozenset[str]) -> tuple[bool, MooreStrategy | None]:
        di = self.game.players.index(deviator)
        co_key = tuple(profile.by_player[i].encoding(self.game)
                       for i in range(len(self.game.players)) if i != di)
        key = (deviator, co_key, targets)
        if key not in self._cache:
            self._cache[key] = _can_win_set(self.game, profile, deviator, targets)
        return self._cache[key]


def deviation_questions(game: Mtg, kind: str, wt: dict[str, frozenset[str]],
                        topology: str | None = None):
    """The (player, targets) questions a ``kind`` check asks under winning sets ``wt``.

    Player-major, then topology order, over each player's losing topologies t
    (only ``topology`` when given). NE and GNE ask whether the player can win
    {t}. CNE asks whether she can win her current set plus t: any deviation
    achieving a strict superset achieves one of those, and conversely.
    """
    tops = game.topologies if topology is None else (topology,)
    for p in game.players:
        for t in tops:
            if t not in wt[p]:
                yield p, (wt[p] | {t}) if kind == "cne" else frozenset({t})


def _check(kind: str, game: Mtg, profile: Profile, oracle: DeviationOracle | None,
           topology: str | None = None) -> EquilibriumReport:
    """Ask ``kind``'s deviation questions in order; the first yes refutes the profile."""
    wt = wintop_map(game, profile)  # checks the profile; ``ask`` takes it unchecked
    ask = partial(_can_win_set, game) if oracle is None else oracle._ask
    for p, targets in deviation_questions(game, kind, wt, topology):
        ok, strat = ask(profile, p, targets)
        if ok:
            return EquilibriumReport(kind=kind, verdict=False, wintop=wt,
                                     witness=DeviationWitness(p, targets, strat),
                                     topology=topology)
    return EquilibriumReport(kind=kind, verdict=True, wintop=wt, witness=None,
                             topology=topology)


def check_ne(game: Mtg, topology: str, profile: Profile,
             oracle: DeviationOracle | None = None) -> EquilibriumReport:
    """Nash equilibrium of the single concurrent game in ``topology``.

    A losing player benefits iff she can win ``topology`` by deviating, the
    GNE question for that pair: an oracle shared with ``check_gne`` has it.
    """
    if topology not in game.topologies:
        raise InputError(f"unknown topology {topology!r}")
    return _check("ne", game, profile, oracle, topology)


def check_gne(game: Mtg, profile: Profile,
              oracle: DeviationOracle | None = None) -> EquilibriumReport:
    """Greedy equilibrium: no player can deviate and win a currently-losing topology."""
    return _check("gne", game, profile, oracle)


def check_cne(game: Mtg, profile: Profile,
              oracle: DeviationOracle | None = None) -> EquilibriumReport:
    """Conservative equilibrium: no deviation yields a strict superset of winning topologies."""
    return _check("cne", game, profile, oracle)
