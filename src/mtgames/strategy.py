"""Finite-memory observation-based strategies, profiles and their outcomes.

Strategies observe the history of visited states only; they never see the
hidden topology or the other players' actions. A Moore strategy folds its
memory through the past states and emits an action from the current memory
and the currently observed state, so a strategy with one memory state is
exactly a memoryless (positional) strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import InputError, Lasso, Mtg, check_lasso


@dataclass(frozen=True, slots=True)
class MooreStrategy:
    """A finite-memory strategy over observed game states.

    On history ``s_0 .. s_k`` the memory is folded through ``update`` over
    ``s_0 .. s_{k-1}`` starting from ``init``, and the emitted action is
    ``act(memory, s_k)``. Both tables must be total over memory x states.
    """

    memory: tuple[str, ...]
    init: str
    update: dict[tuple[str, str], str]
    act: dict[tuple[str, str], str]

    def advance(self, mem: str, state: str) -> str:
        return self.update[(mem, state)]

    def action(self, mem: str, state: str) -> str:
        return self.act[(mem, state)]

    def check(self, game: Mtg, where: str = "strategy") -> None:
        """Raise InputError, naming ``where``, unless the tables are total and well formed."""
        if not self.memory or len(set(self.memory)) != len(self.memory):
            raise InputError(f"{where}: memory list empty or with duplicates")
        if self.init not in self.memory:
            raise InputError(f"{where}: initial memory {self.init!r} not in memory list")
        for m in self.memory:
            for s in game.states:
                cell = (m, s)
                if cell not in self.update:
                    raise InputError(f"{where}: update table missing row ({m}, {s})")
                if self.update[cell] not in self.memory:
                    raise InputError(
                        f"{where}: update target {self.update[cell]!r} not a memory state")
                if cell not in self.act:
                    raise InputError(f"{where}: act table missing row ({m}, {s})")
                if self.act[cell] not in game.actions:
                    raise InputError(f"{where}: act value {self.act[cell]!r} not an action")

    def encoding(self, game: Mtg) -> tuple:
        """Hashable content key, used for caching deviation analyses."""
        mi = {m: i for i, m in enumerate(self.memory)}
        upd = tuple(mi[self.update[(m, s)]] for m in self.memory for s in game.states)
        act = tuple(game.actions.index(self.act[(m, s)]) for m in self.memory for s in game.states)
        return (len(self.memory), mi[self.init], upd, act)

    def tables(self, game: Mtg) -> tuple[np.ndarray, np.ndarray]:
        """Integer ``(update, act)`` tables of shape (1, M, S) for the kernels.

        Memory index 0 is the initial memory state.
        """
        order = [self.init] + [m for m in self.memory if m != self.init]
        mi = {m: i for i, m in enumerate(order)}
        n_m, n_s = len(order), len(game.states)
        upd = np.zeros((1, n_m, n_s), dtype=np.int32)
        act = np.zeros((1, n_m, n_s), dtype=np.int32)
        ai = {a: i for i, a in enumerate(game.actions)}
        for m in order:
            for j, s in enumerate(game.states):
                upd[0, mi[m], j] = mi[self.update[(m, s)]]
                act[0, mi[m], j] = ai[self.act[(m, s)]]
        return upd, act


def constant_strategy(game: Mtg, action: str) -> MooreStrategy:
    """The memoryless strategy that always plays ``action``."""
    if action not in game.actions:
        raise InputError(f"unknown action {action!r}")
    return MooreStrategy(
        memory=("m0",), init="m0",
        update={("m0", s): "m0" for s in game.states},
        act={("m0", s): action for s in game.states})


def periodic_strategy(game: Mtg, actions: list[str]) -> MooreStrategy:
    """A state-blind strategy cycling through ``actions``, one per round."""
    n = len(actions)
    mems = tuple(f"m{i}" for i in range(n))
    return MooreStrategy(
        memory=mems, init="m0",
        update={(f"m{i}", s): f"m{(i + 1) % n}" for i in range(n) for s in game.states},
        act={(f"m{i}", s): actions[i] for i in range(n) for s in game.states})


@dataclass(frozen=True, slots=True)
class Profile:
    """One strategy per player, in player order."""

    by_player: tuple[MooreStrategy, ...]

    def check(self, game: Mtg) -> None:
        if len(self.by_player) != len(game.players):
            raise InputError(
                f"profile has {len(self.by_player)} strategies, expected {len(game.players)}")
        for p, strat in zip(game.players, self.by_player):
            strat.check(game, f"profile.{p}")

    def substitute(self, player_idx: int, strat: MooreStrategy) -> "Profile":
        lst = list(self.by_player)
        lst[player_idx] = strat
        return Profile(tuple(lst))


def outcome(game: Mtg, topology: str, profile: Profile) -> Lasso:
    """The unique play of ``topology`` under ``profile``, as a lasso.

    Simulates the deterministic product of game state and per-player memory
    and splits the play at the first repeated product state; terminates within
    ``|states| * prod(|memory|) + 1`` steps.
    """
    if topology not in game.topologies:
        raise InputError(f"unknown topology {topology!r}")
    profile.check(game)
    s = game.initial
    mems = tuple(strat.init for strat in profile.by_player)
    seen: dict[tuple, int] = {(s, mems): 0}
    seq = [s]
    while True:
        actions = tuple([strat.act[(m, s)] for strat, m in zip(profile.by_player, mems)])
        mems = tuple([strat.update[(m, s)] for strat, m in zip(profile.by_player, mems)])
        s = game.transition[(topology, s, actions)]
        i = seen.setdefault((s, mems), len(seq))
        if i < len(seq):
            return Lasso(prefix=tuple(seq[:i]), cycle=tuple(seq[i:]), topology=topology)
        seq.append(s)


def _lasso_winners(game: Mtg, lasso: Lasso) -> frozenset[str]:
    """Players whose parity objective holds on ``lasso``, which is checked legal once."""
    t = lasso.topology
    check_lasso(game, t, lasso)
    return frozenset([p for p in game.players
                      if min([game.priority[(t, p, s)] for s in lasso.cycle]) % 2 == 0])


def winners(game: Mtg, topology: str, profile: Profile) -> frozenset[str]:
    """Players whose parity objective holds on the outcome in ``topology``."""
    return _lasso_winners(game, outcome(game, topology, profile))


def wintop_map(game: Mtg, profile: Profile) -> dict[str, frozenset[str]]:
    """Every player's set of winning topologies: one outcome per topology serves all players."""
    won = {t: _lasso_winners(game, outcome(game, t, profile)) for t in game.topologies}
    return {p: frozenset([t for t in game.topologies if p in won[t]]) for p in game.players}


def wintop(game: Mtg, profile: Profile, player: str) -> frozenset[str]:
    """The set of topologies in which ``player`` wins under ``profile``."""
    if player not in game.players:
        raise InputError(f"unknown player {player!r}")
    return wintop_map(game, profile)[player]


class StrategyBlock:
    """All Moore strategies with exactly ``m`` memory states over a game's alphabet.

    Strategies are indexed by an integer that concatenates the update table
    (most significant) and the act table, each read cell by cell in
    (memory, state) order. ``canonical`` filters to representatives that are
    lexicographically minimal under renaming of the non-initial memory states,
    so iteration yields no duplicates modulo renaming.
    """

    def __init__(self, game: Mtg, m: int):
        self.game = game
        self.m = m
        self.n_states = len(game.states)
        self.n_actions = len(game.actions)
        self.cells = m * self.n_states
        self.n_update_tables = m ** self.cells
        self.n_act_tables = self.n_actions ** self.cells
        self.total = self.n_update_tables * self.n_act_tables

    def decode(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index array -> ((B, M, S) update, (B, M, S) act) integer tables."""
        indices = np.asarray(indices, dtype=np.int64)
        upd_idx = indices // self.n_act_tables
        act_idx = indices % self.n_act_tables
        upd = _kernels.decode_tables(upd_idx, self.cells, self.m)
        act = _kernels.decode_tables(act_idx, self.cells, self.n_actions)
        b = indices.shape[0]
        return (upd.reshape(b, self.m, self.n_states), act.reshape(b, self.m, self.n_states))

    def canonical_chunks(self, chunk_size: int = 1 << 15):
        """Yield (indices, update_tables, act_tables) for canonical strategies, in order."""
        for lo in range(0, self.total, chunk_size):
            indices = np.arange(lo, min(lo + chunk_size, self.total), dtype=np.int64)
            upd, act = self.decode(indices)
            keep = _kernels.canonical_mask(
                upd.reshape(len(indices), -1), act.reshape(len(indices), -1),
                self.m, self.n_actions)
            if keep.any():
                yield indices[keep], upd[keep], act[keep]

    def strategy_at(self, index: int) -> MooreStrategy:
        """Materialize the strategy with the given block index."""
        upd, act = self.decode(np.array([index], dtype=np.int64))
        mems = tuple(f"m{i}" for i in range(self.m))
        update = {}
        action = {}
        for i in range(self.m):
            for j, s in enumerate(self.game.states):
                cell = (mems[i], s)  # one key tuple for both tables saves memory
                update[cell] = mems[int(upd[0, i, j])]
                action[cell] = self.game.actions[int(act[0, i, j])]
        return MooreStrategy(memory=mems, init="m0", update=update, act=action)

    def count_canonical(self) -> int:
        return sum(len(idx) for idx, _, _ in self.canonical_chunks())


def enumerate_strategies(game: Mtg, memory_bound: int):
    """Yield every Moore strategy with at most ``memory_bound`` memory states.

    Order: memory size ascending, then lexicographic over the update table
    followed by the act table. Strategies that are renamings of an earlier one
    (permuting non-initial memory states) are skipped.
    """
    if memory_bound < 1:
        raise InputError(f"memory bound must be >= 1, got {memory_bound}")
    for m in range(1, memory_bound + 1):
        block = StrategyBlock(game, m)
        for indices, _, _ in block.canonical_chunks():
            for i in indices:
                yield block.strategy_at(int(i))
