"""Exact equilibrium verification for finite-memory profiles.

Three solution concepts are checked for a given profile:

* NE in one topology: no losing player has any deviation winning there.
* GNE: no player has a deviation that wins a currently-losing topology.
* CNE: no player has a deviation making her winning-topology set a strict
  superset of the current one.

Single-topology deviations reduce to one-player residual games (the deviator
plays against the fixed co-strategies). Simultaneous multi-topology deviations
are decided on a knowledge arena whose nodes track the current state, the set
of topologies still consistent with the observed history, and the co-players'
memories. Because a deviating strategy is one function of the state history,
topologies with identical observed histories must receive identical deviator
actions; the knowledge set captures exactly that, so verification is exact for
deviating strategies of unbounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arena import SEEKER, SPOILER, Arena, ArenaLasso
from .core import InputError, Mtg
from .solvers import WitnessMachine, solve_conjunction, solve_one_player
from .strategy import MooreStrategy, Profile, winners, wintop, wintop_map


@dataclass(frozen=True)
class KnowledgeNode:
    """Deviator's information state: game state, consistent topologies, co-memories."""

    state: str
    consistent: frozenset[str]
    memories: tuple[str, ...]

    def __repr__(self) -> str:
        tops = "{" + ",".join(sorted(self.consistent)) + "}"
        return f"K({self.state}, {tops}, mem={list(self.memories)})"


@dataclass(frozen=True)
class _ChoiceNode:
    """Midpoint after the deviator committed an action; Spoiler resolves the branch."""

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


def _co_players(game: Mtg, deviator: str) -> list[int]:
    di = game.players.index(deviator)
    return [i for i in range(len(game.players)) if i != di]


def build_knowledge_arena(game: Mtg, profile: Profile, deviator: str,
                          targets: frozenset[str]) -> Arena:
    """Arena for the question: can ``deviator`` win all of ``targets`` at once?

    Seeker nodes are knowledge nodes where the deviator picks an action;
    Spoiler midpoints then split the consistent topologies by successor state
    and pick which observation branch the play follows. The priority vector
    has one coordinate per target topology, valued with the deviator's
    priority while the topology is consistent and forced to 0 (satisfied)
    once it drops out: a dropped topology follows a different branch, where
    its own condition is evaluated.
    """
    if deviator not in game.players:
        raise InputError(f"unknown player {deviator!r}")
    targets = frozenset(targets)
    if not targets:
        raise InputError("target topology set must be nonempty")
    if not targets <= set(game.topologies):
        raise InputError(f"unknown topologies in targets: {sorted(targets - set(game.topologies))}")
    profile.check(game)
    di = game.players.index(deviator)
    co = _co_players(game, deviator)
    co_strats = [profile.by_player[i] for i in co]
    tlist = [t for t in game.topologies if t in targets]
    top_pos = {t: i for i, t in enumerate(game.topologies)}

    def vector(k: KnowledgeNode) -> tuple[int, ...]:
        return tuple(game.priority[(t, deviator, k.state)] if t in k.consistent else 0
                     for t in tlist)

    def mask_of(k: KnowledgeNode) -> tuple[bool, ...]:
        return tuple(t in k.consistent for t in tlist)

    init = KnowledgeNode(game.initial, frozenset(game.topologies),
                         tuple(s.init for s in co_strats))
    nodes: list = [init]
    index: dict = {init: 0}
    owner = [SEEKER]
    succ: list[list[int]] = [[]]
    labels: list[list] = [[]]
    priorities: list[tuple[int, ...]] = [vector(init)]
    queue = 0
    while queue < len(nodes):
        vi = queue
        queue += 1
        node = nodes[vi]
        if isinstance(node, KnowledgeNode):
            for a in game.actions:
                ch = _ChoiceNode(node, a)
                if ch not in index:
                    index[ch] = len(nodes)
                    nodes.append(ch)
                    owner.append(SPOILER)
                    succ.append([])
                    labels.append([])
                    priorities.append(priorities[vi])
                succ[vi].append(index[ch])
                labels[vi].append(a)
        else:
            k = node.base
            s = k.state
            prof = [""] * len(game.players)
            for ci, strat, mem in zip(co, co_strats, k.memories):
                prof[ci] = strat.action(mem, s)
            prof[di] = node.action
            prof_t = tuple(prof)
            new_mems = tuple(strat.advance(mem, s)
                             for strat, mem in zip(co_strats, k.memories))
            groups: dict[str, set[str]] = {}
            for t in sorted(k.consistent, key=top_pos.get):
                groups.setdefault(game.transition[(t, s, prof_t)], set()).add(t)
            for s2 in game.states:
                if s2 not in groups:
                    continue
                child = KnowledgeNode(s2, frozenset(groups[s2]), new_mems)
                if child not in index:
                    index[child] = len(nodes)
                    nodes.append(child)
                    owner.append(SEEKER)
                    succ.append([])
                    labels.append([])
                    priorities.append(vector(child))
                succ[vi].append(index[child])
                labels[vi].append(None)
    arena = Arena(nodes=nodes, owner=owner, succ=succ, labels=labels,
                  priorities=priorities, initial=0, k=len(tlist))
    arena.check()
    return arena


def knowledge_active_mask(arena: Arena, targets_in_order: list[str]) -> list[tuple[bool, ...]]:
    """Per-node activity: a target coordinate is live while the topology is consistent."""
    out = []
    for payload in arena.nodes:
        k = payload if isinstance(payload, KnowledgeNode) else payload.base
        out.append(tuple(t in k.consistent for t in targets_in_order))
    return out


def _machine_to_moore(game: Mtg, arena: Arena, machine: WitnessMachine,
                      deviator: str) -> MooreStrategy:
    """Transport a winning arena strategy into a Moore strategy over game states.

    The Moore memory packs the previous knowledge node, the action taken there
    and the record memory; observing the next state resolves the Spoiler
    branch deterministically. Histories that cannot arise fall into an
    absorbing dead memory with a fixed default action, keeping tables total.
    """
    default_action = game.actions[0]
    choice_lookup: dict[tuple[int, str], int] = {}
    children: dict[int, dict[str, int]] = {}
    for vi, payload in enumerate(arena.nodes):
        if isinstance(payload, KnowledgeNode):
            for w, lab in zip(arena.succ[vi], arena.labels[vi]):
                choice_lookup[(vi, lab)] = w
        else:
            children[vi] = {arena.nodes[w].state: w for w in arena.succ[vi]}

    START = ("start",)
    DEAD = ("dead",)

    def act_at(knode_idx: int, record) -> tuple[str, object]:
        edge = machine.choice.get((record, knode_idx))
        if edge is None:
            return default_action, record
        return arena.labels[knode_idx][edge], record

    mem_ids: dict = {START: "w0"}
    order: list = [START]
    update: dict[tuple[str, str], str] = {}
    act: dict[tuple[str, str], str] = {}
    frontier = 0
    while frontier < len(order):
        payload = order[frontier]
        mid = mem_ids[payload]
        frontier += 1
        for s in game.states:
            if payload == DEAD:
                act[(mid, s)] = default_action
                update[(mid, s)] = mid
                continue
            if payload == START:
                knode = 0 if s == game.initial else None
                record = machine.init
            else:
                prev_k, prev_a, record = payload
                ch = choice_lookup[(prev_k, prev_a)]
                record = machine.step(record, ch)
                knode = children[ch].get(s)
            if knode is None:
                act[(mid, s)] = default_action
                nxt = DEAD
            else:
                a, record = act_at(knode, record)
                act[(mid, s)] = a
                nxt = (knode, a, machine.step(record, knode))
            if nxt not in mem_ids:
                mem_ids[nxt] = f"w{len(order)}"
                order.append(nxt)
            update[(mid, s)] = mem_ids[nxt]
    return MooreStrategy(memory=tuple(mem_ids[p] for p in order), init="w0",
                         update=update, act=act)


def can_deviator_win_set(game: Mtg, profile: Profile, deviator: str,
                         targets: frozenset[str]) -> tuple[bool, MooreStrategy | None]:
    """Does some deviating strategy (any memory) win every target topology at once?

    Decided exactly on the knowledge arena. On success the witness strategy is
    replayed through the winning-topology computation and must cover the
    targets, otherwise an internal error is raised.
    """
    targets = frozenset(targets)
    arena = build_knowledge_arena(game, profile, deviator, targets)
    tlist = [t for t in game.topologies if t in targets]
    mask = knowledge_active_mask(arena, tlist)
    res = solve_conjunction(arena, mask)
    if not res.winner:
        return False, None
    moore = _machine_to_moore(game, arena, res.witness, deviator)
    di = game.players.index(deviator)
    achieved = wintop(game, profile.substitute(di, moore), deviator)
    if not targets <= achieved:
        raise AssertionError(
            f"deviation witness failed replay: wanted {sorted(targets)}, got {sorted(achieved)}")
    return True, moore


def build_residual_arena(game: Mtg, profile: Profile, deviator: str,
                         topology: str) -> Arena:
    """One-player game the deviator faces in a fixed topology with co-strategies fixed."""
    if topology not in game.topologies:
        raise InputError(f"unknown topology {topology!r}")
    di = game.players.index(deviator)
    co = _co_players(game, deviator)
    co_strats = [profile.by_player[i] for i in co]
    init = (game.initial, tuple(s.init for s in co_strats))
    nodes = [init]
    index = {init: 0}
    succ: list[list[int]] = [[]]
    labels: list[list] = [[]]
    priorities = [(game.priority[(topology, deviator, game.initial)],)]
    queue = 0
    while queue < len(nodes):
        vi = queue
        queue += 1
        s, mems = nodes[vi]
        prof = [""] * len(game.players)
        for ci, strat, mem in zip(co, co_strats, mems):
            prof[ci] = strat.action(mem, s)
        new_mems = tuple(strat.advance(mem, s) for strat, mem in zip(co_strats, mems))
        for a in game.actions:
            prof[di] = a
            s2 = game.transition[(topology, s, tuple(prof))]
            child = (s2, new_mems)
            if child not in index:
                index[child] = len(nodes)
                nodes.append(child)
                succ.append([])
                labels.append([])
                priorities.append((game.priority[(topology, deviator, s2)],))
            succ[vi].append(index[child])
            labels[vi].append(a)
    return Arena(nodes=nodes, owner=[SEEKER] * len(nodes), succ=succ,
                 labels=labels, priorities=priorities, initial=0, k=1)


def _lasso_to_moore(game: Mtg, lasso: ArenaLasso) -> MooreStrategy:
    """Follow the action labels of an arena lasso as a position-counter strategy."""
    actions = list(lasso.prefix_labels) + list(lasso.cycle_labels)
    n = len(actions)
    wrap_to = len(lasso.prefix_labels)
    mems = tuple(f"m{i}" for i in range(n))
    update = {}
    act = {}
    for i in range(n):
        nxt = mems[i + 1] if i + 1 < n else mems[wrap_to]
        for s in game.states:
            update[(mems[i], s)] = nxt
            act[(mems[i], s)] = actions[i]
    return MooreStrategy(memory=mems, init="m0", update=update, act=act)


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
        di = self.game.players.index(deviator)
        co_key = tuple(profile.by_player[i].encoding(self.game)
                       for i in range(len(self.game.players)) if i != di)
        key = (deviator, co_key, frozenset(targets))
        if key not in self._cache:
            self._cache[key] = can_deviator_win_set(self.game, profile, deviator, targets)
        return self._cache[key]


def check_ne(game: Mtg, topology: str, profile: Profile) -> EquilibriumReport:
    """Nash equilibrium of the single concurrent game in ``topology``.

    A losing player benefits iff the one-player residual game reaches a cycle
    whose minimum priority for her is even.
    """
    if topology not in game.topologies:
        raise InputError(f"unknown topology {topology!r}")
    profile.check(game)
    wt = wintop_map(game, profile)
    for p in game.players:
        if topology in wt[p]:
            continue
        arena = build_residual_arena(game, profile, p, topology)
        ok, lasso = solve_one_player(arena, 0)
        if ok:
            strat = _lasso_to_moore(game, lasso)
            di = game.players.index(p)
            if p not in winners(game, topology, profile.substitute(di, strat)):
                raise AssertionError("residual deviation witness failed replay")
            return EquilibriumReport(kind="ne", verdict=False, wintop=wt,
                                     witness=DeviationWitness(p, frozenset({topology}), strat),
                                     topology=topology)
    return EquilibriumReport(kind="ne", verdict=True, wintop=wt, witness=None,
                             topology=topology)


def check_gne(game: Mtg, profile: Profile,
              oracle: DeviationOracle | None = None) -> EquilibriumReport:
    """Greedy equilibrium: no player can deviate and win a currently-losing topology."""
    profile.check(game)
    oracle = oracle or DeviationOracle(game)
    wt = wintop_map(game, profile)
    all_tops = frozenset(game.topologies)
    for p in game.players:
        if wt[p] == all_tops:
            continue
        for t in game.topologies:
            if t in wt[p]:
                continue
            ok, strat = oracle.can_win(profile, p, frozenset({t}))
            if ok:
                return EquilibriumReport(kind="gne", verdict=False, wintop=wt,
                                         witness=DeviationWitness(p, frozenset({t}), strat))
    return EquilibriumReport(kind="gne", verdict=True, wintop=wt, witness=None)


def check_cne(game: Mtg, profile: Profile,
              oracle: DeviationOracle | None = None) -> EquilibriumReport:
    """Conservative equilibrium: no deviation yields a strict superset of winning topologies.

    Any deviation achieving a strict superset achieves the current set plus
    one extra topology, and conversely, so it suffices to test the current set
    extended by each losing topology.
    """
    profile.check(game)
    oracle = oracle or DeviationOracle(game)
    wt = wintop_map(game, profile)
    all_tops = frozenset(game.topologies)
    for p in game.players:
        if wt[p] == all_tops:
            continue
        for t in game.topologies:
            if t in wt[p]:
                continue
            targets = wt[p] | {t}
            ok, strat = oracle.can_win(profile, p, targets)
            if ok:
                return EquilibriumReport(kind="cne", verdict=False, wintop=wt,
                                         witness=DeviationWitness(p, frozenset(targets), strat))
    return EquilibriumReport(kind="cne", verdict=True, wintop=wt, witness=None)
