"""Partial-information challenge games certifying CNE/GNE with fixed target sets.

Given intended winning-topology sets, one per player, two games are built:

* the conservative (CNE) instance has three roles: a coalition player
  suggesting a full action profile each round, a deviator controller that
  first commits to a player and a challenge set of topologies and then plays
  that player's actions, and a resolver that secretly fixes the concrete
  topology. The coalition and the deviator observe only the projected game
  state; the resolver has perfect information.
* the greedy (GNE) instance drops the resolver: the deviator controller picks
  the player and a single topology up front.

Interior states carry the projected game state, the committed choices, and an
obedience bit that turns false forever the first time the deviator's action
differs from the coalition's suggestion. Each instance carries a rank
function; on every play the conjunction of the defining objective clauses
holds iff the minimum rank seen infinitely often is even, which the
agreement oracle in :mod:`mtgames.oracles` checks exhaustively on small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import InputError, Lasso, Mtg
from .strategy import MooreStrategy, Profile, _outcome

START = "start"

COALITION = "coalition"
DEVIATOR = "deviator"
RESOLVER = "resolver"


class HState(NamedTuple):
    """Interior state of a challenge game; ``T`` is None in greedy instances."""

    s: str
    p: str
    T: frozenset[str] | None
    t: str
    b: bool


@dataclass
class PartialInfoGame:
    kind: str
    players: tuple[str, ...]
    states: list
    initial: str
    transitions: dict
    rank: dict
    observations: dict[str, list[frozenset]]
    game: Mtg
    targets: dict[str, frozenset[str]]
    ids: dict[object, str]  # each state's name, the same in every process
    _succ: dict | None = field(default=None, init=False, repr=False, compare=False)

    def successor_sets(self) -> dict:
        """Each state's set of successors, built once: a built game is never mutated."""
        if self._succ is None:
            self._succ = {q: set() for q in self.states}
            for (q, _), q2 in self.transitions.items():
                self._succ[q].add(q2)
        return self._succ

    def start_choices(self) -> list[tuple]:
        """The start state's commitments, ordered by the names of the states they lead to.

        A commitment is the ``(p, T, t)`` of the state it leads to: the deviating
        player, the challenge set (None in greedy instances) and the topology.
        """
        return sorted((key[1] for key in self.transitions if key[0] == START),
                      key=lambda c: self.ids[self.transitions[(START, c)]])


def _h_state_id(q: HState, game: Mtg) -> str:
    """An interior state's name, alike in every process: ``str(q)`` lists ``T`` in hash order."""
    T = "" if q.T is None else "+".join(t for t in game.topologies if t in q.T)
    bits = [q.s, q.p] + ([T] if q.T is not None else []) + [q.t, str(int(q.b))]
    return "|".join(bits)


def _h_state_text(q: HState, game: Mtg) -> str:
    T = "" if q.T is None else f", T={[t for t in game.topologies if t in q.T]}"
    return f"(s={q.s!r}, p={q.p!r}{T}, t={q.t!r}, b={q.b})"


def target_tuple(game: Mtg, targets: dict[str, set[str] | frozenset[str]]
                 ) -> dict[str, frozenset[str]]:
    """Validate and normalize an intended winning-topology set per player."""
    if set(targets) != set(game.players):
        raise InputError(f"targets must name exactly the game's players "
                         f"{list(game.players)}, not {sorted(targets)}")
    out = {}
    for p, ts in targets.items():
        ts = frozenset(ts)
        if not ts <= set(game.topologies):
            raise InputError(f"unknown topologies in targets of {p}: {sorted(ts)}")
        out[p] = ts
    return out


def challenge_sets(game: Mtg, targets: dict[str, frozenset[str]]
                   ) -> tuple[dict[str, list[frozenset[str]]], list[frozenset[str]]]:
    """Per-player challenge sets (target set plus one topology, and singletons).

    Restricting to these keeps the state space polynomial: a deviation that
    grows the winning set grows it by one topology in particular, and the
    singletons force the coalition to actually win the intended topologies.
    """
    singles = [frozenset({t}) for t in game.topologies]
    per_player: dict[str, list[frozenset[str]]] = {}
    family: list[frozenset[str]] = []
    for p in game.players:
        opts: list[frozenset[str]] = []
        for t in game.topologies:
            cand = targets[p] | {t}
            if cand not in opts:
                opts.append(cand)
        for s in singles:
            if s not in opts:
                opts.append(s)
        per_player[p] = opts
        for T in opts:
            if T not in family:
                family.append(T)
    return per_player, family


def _cne_rank(game: Mtg, targets: dict[str, frozenset[str]], q: HState) -> int:
    if q.t not in q.T:
        return 1
    tp = targets[q.p]
    strict = tp < q.T
    base = game.priority[(q.t, q.p, q.s)]
    if q.b and q.t in tp:
        # obeying run on an intended topology: contradictory with a strict
        # challenge, otherwise the player's own objective applies
        return 1 if strict else base
    return base + 1 if strict else 0


def _gne_rank(game: Mtg, targets: dict[str, frozenset[str]], q: HState) -> int:
    tp = targets[q.p]
    if q.t not in tp:
        return game.priority[(q.t, q.p, q.s)] + 1
    if q.b:
        return game.priority[(q.t, q.p, q.s)]
    return 0


def _build(game: Mtg, targets: dict[str, frozenset[str]], kind: str) -> PartialInfoGame:
    targets = target_tuple(game, targets)
    di = {p: i for i, p in enumerate(game.players)}
    transitions: dict = {}
    states: list = [START]
    ids = {START: START}
    named = {START: START}

    def intern(q: HState) -> HState:
        if q not in ids:
            ids[q] = sid = _h_state_id(q, game)
            if (other := named.setdefault(sid, q)) is not q:  # a name holding '|' or '+'
                raise InputError(f"states {_h_state_text(other, game)} and "
                                 f"{_h_state_text(q, game)} of the {kind} challenge game "
                                 f"share the id {sid!r}")
            states.append(q)
        return q

    if kind == "cne":
        per_player, family = challenge_sets(game, targets)
    elif kind == "gne":
        per_player = {p: [None] for p in game.players}
    else:
        raise InputError(f"unknown reduction kind {kind!r}")
    for p in game.players:
        for T in per_player[p]:
            for t in game.topologies:
                q = intern(HState(game.initial, p, T, t, True))
                transitions[(START, (p, T, t))] = q

    profiles = game.action_profiles()
    frontier = 1
    while frontier < len(states):
        q = states[frontier]
        frontier += 1
        for prof in profiles:
            for a in game.actions:
                played = list(prof)
                played[di[q.p]] = a
                s2 = game.transition[(q.t, q.s, tuple(played))]
                b2 = q.b and (prof[di[q.p]] == a)
                q2 = intern(HState(s2, q.p, q.T, q.t, b2))
                transitions[(q, (prof, a))] = q2

    rank: dict = {START: 0}
    rank_fn = _cne_rank if kind == "cne" else _gne_rank
    for q in states[1:]:
        rank[q] = rank_fn(game, targets, q)

    interior = states[1:]
    obs_shared: list[frozenset] = [frozenset({START})]
    for s in game.states:
        cls = frozenset(q for q in interior if q.s == s)
        if cls:
            obs_shared.append(cls)
    observations = {COALITION: obs_shared, DEVIATOR: obs_shared}
    players: tuple[str, ...] = (COALITION, DEVIATOR)
    if kind == "cne":
        observations[RESOLVER] = [frozenset({START})] + [frozenset({q}) for q in interior]
        players = (COALITION, DEVIATOR, RESOLVER)

    n_s, n_p, n_t = len(game.states), len(game.players), len(game.topologies)
    if kind == "cne":
        if len(family) > 2 * n_p * n_t:
            raise AssertionError("challenge-set family exceeded its size bound")
        if len(interior) > 2 * n_s * n_p * len(family) * n_t:
            raise AssertionError("reachable state count exceeded its size bound")
    else:
        if len(interior) > 2 * n_s * n_p * n_t:
            raise AssertionError("reachable state count exceeded its size bound")

    return PartialInfoGame(kind=kind, players=players, states=states, initial=START,
                           transitions=transitions, rank=rank, observations=observations,
                           game=game, targets=targets, ids=ids)


def build_cne_game(game: Mtg, targets: dict[str, frozenset[str]]) -> PartialInfoGame:
    """Three-role challenge game whose coalition wins iff a CNE with these targets exists."""
    return _build(game, targets, "cne")


def build_gne_game(game: Mtg, targets: dict[str, frozenset[str]]) -> PartialInfoGame:
    """Two-role challenge game whose coalition wins iff a GNE with these targets exists."""
    return _build(game, targets, "gne")


def check_h_lasso(h: PartialInfoGame, lasso: Lasso) -> None:
    """Raise InputError unless the lasso is a legal play of the challenge game."""
    if not lasso.cycle:
        raise InputError("lasso cycle is empty")
    seq = list(lasso.prefix) + list(lasso.cycle)
    if seq[0] != START:
        raise InputError("challenge-game plays start at the start state")
    if START in lasso.cycle:
        raise InputError("the start state cannot repeat")
    succ = h.successor_sets()
    pairs = list(zip(seq, seq[1:])) + [(lasso.cycle[-1], lasso.cycle[0])]
    for u, v in pairs:
        if v not in succ[u]:
            raise InputError(f"lasso edge {u!r} -> {v!r} not realizable")


def semantic_objective(h: PartialInfoGame, lasso: Lasso) -> bool:
    """Evaluate the defining objective clauses directly, independent of the rank.

    Conservative instances: the resolver must have picked a challenged
    topology; an obeying run on an intended topology must win the projected
    play; a strict challenge must lose it. Greedy instances: an obeying run on
    an intended topology must win; a non-intended topology must lose.
    """
    check_h_lasso(h, lasso)
    interior = [q for q in list(lasso.prefix) + list(lasso.cycle) if q != START]
    first = interior[0]
    p, T, t = first.p, first.T, first.t
    obey = all(q.b for q in interior)
    tp = h.targets[p]
    proj_win = min(h.game.priority[(t, p, q.s)] for q in lasso.cycle) % 2 == 0
    if h.kind == "cne":
        psi1 = t in T
        psi2 = (not (obey and t in tp)) or proj_win
        psi3 = (not (tp < T)) or (not proj_win)
        return psi1 and psi2 and psi3
    psi1 = (not (obey and t in tp)) or proj_win
    psi2 = (t in tp) or (not proj_win)
    return psi1 and psi2


def rank_parity(h: PartialInfoGame, lasso: Lasso) -> bool:
    """True iff the minimum rank on the lasso's cycle is even."""
    return min(h.rank[q] for q in lasso.cycle) % 2 == 0


@dataclass
class RoundtripReport:
    """Where the projected play first leaves the plays it must mirror, None if nowhere.

    ``suggested_mismatch_index`` is None when the deviator disobeys: the
    projected play then mirrors only the deviated outcome.
    """

    obey: bool
    deviated_mismatch_index: int | None
    suggested_mismatch_index: int | None

    def ok(self) -> bool:
        return self.deviated_mismatch_index is None and (
            not self.obey or self.suggested_mismatch_index is None)


def _first_difference(a: Lasso, b: Lasso) -> int | None:
    """The first position where two plays differ, or None if they are one play."""
    # past both prefixes and one common period of the cycles, both plays repeat
    horizon = max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.cycle), len(b.cycle))
    return next((i for i, (x, y) in enumerate(zip(a.unroll(horizon), b.unroll(horizon)))
                 if x != y), None)


def simulate_h(h: PartialInfoGame, profile: Profile, strategy: MooreStrategy,
               commitment: tuple) -> Lasso:
    """Deterministic play of the challenge game under transported strategies.

    The deviator controller commits to ``commitment``, one of
    ``h.start_choices()``, and then plays ``strategy`` for its player. The
    coalition plays the profile's action suggestions on the projected state
    history; the deviator plays its strategy the same way. Inputs are
    observation-based by construction.
    """
    profile.check(h.game)
    strategy.check(h.game)
    try:
        q = h.transitions[(START, commitment)]
    except (KeyError, TypeError):  # TypeError: an unhashable commitment
        raise InputError("commitment is not an available start choice of this instance") from None
    mems = [strat.init for strat in profile.by_player]
    dev_mem = strategy.init
    seq = [q]
    seen: dict = {(q, tuple(mems), dev_mem): 0}
    while True:
        s = q.s
        prof = tuple(strat.action(m, s) for strat, m in zip(profile.by_player, mems))
        a = strategy.action(dev_mem, s)
        mems = [strat.advance(m, s) for strat, m in zip(profile.by_player, mems)]
        dev_mem = strategy.advance(dev_mem, s)
        q = h.transitions[(q, (prof, a))]
        key = (q, tuple(mems), dev_mem)
        if key in seen:
            i = seen[key]
            return Lasso(prefix=(START,) + tuple(seq[:i]), cycle=tuple(seq[i:]))
        seen[key] = len(seq)
        seq.append(q)


def gamma_roundtrip(h: PartialInfoGame, profile: Profile, strategy: MooreStrategy,
                    commitment: tuple) -> RoundtripReport:
    """Compare the challenge-game play with the plays it is meant to mirror.

    The projected play must equal the outcome of the profile with the
    deviating strategy substituted, always; and when the deviator obeys the
    coalition it must also equal the outcome of the unmodified profile.
    """
    rho = simulate_h(h, profile, strategy, commitment)  # checks all three
    p, _, t = commitment
    obey = all(q.b for q in list(rho.prefix) + list(rho.cycle) if q != START)
    projected = Lasso(tuple(q.s for q in rho.prefix if q != START),
                      tuple(q.s for q in rho.cycle))

    di = h.game.players.index(p)
    idx_dev = _first_difference(projected,
                               _outcome(h.game, t, profile.substitute(di, strategy)))
    idx_sug = _first_difference(projected, _outcome(h.game, t, profile)) if obey else None
    return RoundtripReport(obey=obey, deviated_mismatch_index=idx_dev,
                           suggested_mismatch_index=idx_sug)
