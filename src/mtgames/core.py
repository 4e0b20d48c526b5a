"""Data model and deterministic semantics of multi-topology concurrent parity games.

A multi-topology game (MTG) is a concurrent game played by a fixed set of
players over a fixed state space, except that the transition function is not
unique: the game carries one transition table and one priority function per
(topology, player), and the players do not know which topology is in play.
All identifier lists are ordered; every iteration and report in this package
follows file order so results are deterministic.

All types here are immutable after construction and every operation is a pure
function, so they can be shared freely across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

ActionProfile = tuple[str, ...]


class InputError(ValueError):
    """Raised for malformed inputs: unknown identifiers, illegal lassos, bad files."""


@dataclass(frozen=True)
class Mtg:
    """A multi-topology concurrent parity game.

    ``transition`` maps ``(topology, state, action_profile)`` to the successor
    state and must be total: one row for every triple. ``priority`` maps
    ``(topology, player, state)`` to a natural number; a play satisfies a
    player's objective in a topology iff the minimum priority among the states
    visited infinitely often is even.
    """

    players: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    actions: tuple[str, ...]
    topologies: tuple[str, ...]
    transition: dict[tuple[str, str, ActionProfile], str]
    priority: dict[tuple[str, str, str], int]

    def action_profiles(self) -> list[ActionProfile]:
        """All action profiles in lexicographic order, first player most significant."""
        return list(itertools.product(self.actions, repeat=len(self.players)))


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic play: ``prefix`` then ``cycle`` repeated forever.

    The cycle is entered after the last prefix state; an empty prefix means the
    play starts directly on ``cycle[0]``. ``topology`` records which transition
    table the play was produced in, so legality is checkable later.
    """

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]
    topology: str | None = None

    def unroll(self, n: int) -> list[str]:
        """First ``n`` states of the infinite play."""
        out = list(self.prefix)
        while len(out) < n:
            out.extend(self.cycle)
        return out[:n]

    def states_inf(self) -> frozenset[str]:
        """Set of states visited infinitely often."""
        return frozenset(self.cycle)

    def pretty(self) -> str:
        return "%s | %s" % (" ".join(self.prefix), " ".join(self.cycle))


def validate(game: Mtg) -> list[str]:
    """Check every structural invariant of ``game`` and report defects.

    Returns an empty list iff the game is well formed. Defects are data, not
    failures: each entry is a human-readable string naming the offending
    identifier or triple.
    """
    defects: list[str] = []
    for name, ids in (("players", game.players), ("states", game.states),
                      ("actions", game.actions), ("topologies", game.topologies)):
        if len(set(ids)) != len(ids):
            defects.append(f"duplicate identifiers in {name}: {ids}")
        if not ids:
            defects.append(f"empty identifier list: {name}")
    if game.initial not in game.states:
        defects.append(f"initial state {game.initial!r} not in states")

    profiles = game.action_profiles()
    state_set = set(game.states)
    max_priority = 2 * len(game.states)
    for t in game.topologies:
        for s in game.states:
            for prof in profiles:
                key = (t, s, prof)
                if key not in game.transition:
                    defects.append(f"missing transition row: ({t}, {s}, {prof})")
                elif game.transition[key] not in state_set:
                    defects.append(
                        f"transition target {game.transition[key]!r} of ({t}, {s}, {prof}) not in states")
        for p in game.players:
            for s in game.states:
                key = (t, p, s)
                if key not in game.priority:
                    defects.append(f"missing priority: ({t}, {p}, {s})")
                else:
                    v = game.priority[key]
                    if not isinstance(v, int) or v < 0 or v > max_priority:
                        defects.append(
                            f"priority of ({t}, {p}, {s}) is {v!r}, outside 0..{max_priority}")
    for (t, s, prof), target in game.transition.items():
        if t not in game.topologies or s not in state_set or prof not in set(profiles):
            defects.append(f"transition row with unknown identifiers: ({t}, {s}, {prof}) -> {target}")
    for (t, p, s) in game.priority:
        if t not in game.topologies or p not in game.players or s not in state_set:
            defects.append(f"priority row with unknown identifiers: ({t}, {p}, {s})")
    return defects


def step(game: Mtg, topology: str, state: str, profile: ActionProfile) -> str:
    """Deterministic one-step successor of ``state`` under ``profile`` in ``topology``."""
    if topology not in game.topologies:
        raise InputError(f"unknown topology {topology!r}")
    if state not in game.states:
        raise InputError(f"unknown state {state!r}")
    profile = tuple(profile)
    if len(profile) != len(game.players):
        raise InputError(f"profile {profile} has {len(profile)} actions, expected {len(game.players)}")
    for a in profile:
        if a not in game.actions:
            raise InputError(f"unknown action {a!r} in profile {profile}")
    return game.transition[(topology, state, profile)]


def check_lasso(game: Mtg, topology: str, lasso: Lasso) -> None:
    """Raise InputError unless ``lasso`` is a legal play of ``topology``.

    Legal means: the play starts at the initial state, the cycle is nonempty,
    and every consecutive state pair (including the junction into the cycle
    and the wrap-around) is realized by some action profile.
    """
    if topology not in game.topologies:
        raise InputError(f"unknown topology {topology!r}")
    if not lasso.cycle:
        raise InputError("lasso cycle is empty")
    seq = (*lasso.prefix, *lasso.cycle)
    for s in seq:
        if s not in game.states:
            raise InputError(f"unknown state {s!r} in lasso")
    if seq[0] != game.initial:
        raise InputError(f"lasso starts at {seq[0]!r}, not at initial state {game.initial!r}")
    profiles = game.action_profiles()
    for u, v in zip(seq, seq[1:] + (lasso.cycle[0],)):
        for prof in profiles:
            if game.transition.get((topology, u, prof)) == v:
                break
        else:
            raise InputError(f"lasso edge {u!r} -> {v!r} not realizable in topology {topology!r}")


def parity_satisfied(game: Mtg, topology: str, player: str, lasso: Lasso) -> bool:
    """True iff the minimum priority among the lasso's cycle states is even."""
    if player not in game.players:
        raise InputError(f"unknown player {player!r}")
    check_lasso(game, topology, lasso)
    return min(game.priority[(topology, player, s)] for s in lasso.states_inf()) % 2 == 0


def apply_permutation(profile: ActionProfile, perm: tuple[int, ...]) -> ActionProfile:
    """Reindex ``profile`` so that player ``i``'s action lands at index ``perm[i]``."""
    out = [""] * len(profile)
    for i, a in enumerate(profile):
        out[perm[i]] = a
    return tuple(out)


def permutation_name(perm: tuple[int, ...]) -> str:
    """One-line notation of a permutation, 1-based ("12" is the identity on 2 players)."""
    sep = "" if len(perm) <= 9 else "-"
    return sep.join(str(i + 1) for i in perm)


def symmetrize(base: Mtg, k: int) -> Mtg:
    """Expand a single-topology game into an MTG with one topology per player permutation.

    Models players that plug into the game without knowing which index they
    control: under permutation ``perm`` the action of player ``i`` is taken at
    index ``perm[i]``, and player ``i`` inherits the objective of the base
    player it was mapped to. Topologies are ordered lexicographically by
    one-line permutation notation, which matches ``itertools.permutations``.
    """
    if k < 2:
        raise InputError(f"symmetrize needs at least 2 players, got k={k}")
    if len(base.players) != k:
        raise InputError(f"base game has {len(base.players)} players, expected k={k}")
    if len(base.topologies) != 1:
        raise InputError("symmetrize expects a single-topology base game")
    base_top = base.topologies[0]

    perms = list(itertools.permutations(range(k)))
    top_names = tuple(permutation_name(p) for p in perms)
    transition: dict[tuple[str, str, ActionProfile], str] = {}
    priority: dict[tuple[str, str, str], int] = {}
    for perm, name in zip(perms, top_names):
        for s in base.states:
            for prof in base.action_profiles():
                transition[(name, s, prof)] = base.transition[(base_top, s, apply_permutation(prof, perm))]
        for i, p in enumerate(base.players):
            mapped = base.players[perm[i]]
            for s in base.states:
                priority[(name, p, s)] = base.priority[(base_top, mapped, s)]
    return Mtg(players=base.players, states=base.states, initial=base.initial,
               actions=base.actions, topologies=top_names,
               transition=transition, priority=priority)


@dataclass(frozen=True)
class IndexedMtg:
    """Integer-indexed view of an Mtg for the array simulation kernels.

    ``delta`` has shape (topologies, states, joint) where ``joint`` encodes an
    action profile in base ``len(actions)`` with player 0 most significant.
    ``prio`` has shape (topologies, players, states).
    """

    game: Mtg
    state_index: dict[str, int]
    action_index: dict[str, int]
    player_index: dict[str, int]
    topology_index: dict[str, int]
    delta: np.ndarray
    prio: np.ndarray
    initial: int = field(default=0)

    @property
    def n_players(self) -> int:
        return len(self.game.players)

    @property
    def n_actions(self) -> int:
        return len(self.game.actions)


def compile_tables(game: Mtg) -> IndexedMtg:
    """Build the integer-indexed transition/priority arrays for ``game``."""
    si = {s: i for i, s in enumerate(game.states)}
    ai = {a: i for i, a in enumerate(game.actions)}
    pi = {p: i for i, p in enumerate(game.players)}
    ti = {t: i for i, t in enumerate(game.topologies)}
    n_s, n_a, n_p, n_t = len(si), len(ai), len(pi), len(ti)
    joint = n_a ** n_p
    delta = np.zeros((n_t, n_s, joint), dtype=np.int32)
    prio = np.zeros((n_t, n_p, n_s), dtype=np.int32)
    for (t, s, prof), target in game.transition.items():
        j = 0
        for a in prof:
            j = j * n_a + ai[a]
        delta[ti[t], si[s], j] = si[target]
    for (t, p, s), v in game.priority.items():
        prio[ti[t], pi[p], si[s]] = v
    return IndexedMtg(game=game, state_index=si, action_index=ai, player_index=pi,
                      topology_index=ti, delta=delta, prio=prio, initial=si[game.initial])
