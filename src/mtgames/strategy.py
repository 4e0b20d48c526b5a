"""Finite-memory observation-based strategies, profiles and their outcomes.

Strategies observe the history of visited states only; they never see the
hidden topology or the other players' actions. A Moore strategy folds its
memory through the past states and emits an action from the current memory
and the currently observed state, so a strategy with one memory state is
exactly a memoryless (positional) strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import InputError, Lasso, Mtg

if TYPE_CHECKING:
    import numpy as np

_MISSING = object()


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
                nxt = self.update.get(cell, _MISSING)
                if nxt is _MISSING:
                    raise InputError(f"{where}: update table missing row ({m}, {s})")
                if nxt not in self.memory:
                    raise InputError(f"{where}: update target {nxt!r} not a memory state")
                a = self.act.get(cell, _MISSING)
                if a is _MISSING:
                    raise InputError(f"{where}: act table missing row ({m}, {s})")
                if a not in game.actions:
                    raise InputError(f"{where}: act value {a!r} not an action")
        if len(self.update) + len(self.act) > 2 * len(self.memory) * len(game.states):
            name, table = max(("update", self.update), ("act", self.act), key=lambda e: len(e[1]))
            stray = next(c for c in table if c[0] not in self.memory or c[1] not in game.states)
            raise InputError(f"{where}: {name} table row {stray} outside memory x states")

    def encoding(self, game: Mtg) -> tuple:
        """``(M, update digits, act digits)``: the cache key of deviation analyses.

        Cells run in (memory, state) order and memory 0 is the initial memory,
        the digit order of a strategy block's index, so the key does not depend
        on where the initial memory is listed.
        """
        order = self.memory
        if order[0] != self.init:
            order = (self.init,) + tuple(m for m in order if m != self.init)
        mi = {m: i for i, m in enumerate(order)}
        upd = tuple(mi[self.update[(m, s)]] for m in order for s in game.states)
        act = tuple(game.actions.index(self.act[(m, s)]) for m in order for s in game.states)
        return (len(order), upd, act)

    def tables(self, game: Mtg) -> tuple[np.ndarray, np.ndarray]:
        """The encoding's digits as the kernels' int32 ``(update, act)`` tables, shape (1, M, S)."""
        import numpy as np
        n_m, *digits = self.encoding(game)
        return tuple(np.array(d, dtype=np.int32).reshape(1, n_m, len(game.states)) for d in digits)


def constant_strategy(game: Mtg, action: str) -> MooreStrategy:
    """The memoryless strategy that always plays ``action``."""
    if action not in game.actions:
        raise InputError(f"unknown action {action!r}")
    return MooreStrategy(
        memory=("m0",), init="m0",
        update={("m0", s): "m0" for s in game.states},
        act={("m0", s): action for s in game.states})


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
    return _outcome(game, topology, profile)


def _outcome(game: Mtg, topology: str, profile: Profile) -> Lasso:
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


def winners(game: Mtg, topology: str, profile: Profile) -> frozenset[str]:
    """Players whose parity objective holds on the outcome in ``topology``."""
    if topology not in game.topologies:
        raise InputError(f"unknown topology {topology!r}")
    profile.check(game)
    return _winners(game, topology, profile)


def _winners(game: Mtg, topology: str, profile: Profile) -> frozenset[str]:
    """:func:`winners` on the lasso ``_outcome`` builds: a legal play, so not re-checked."""
    cycle = _outcome(game, topology, profile).cycle
    return frozenset([p for p in game.players
                      if min([game.priority[(topology, p, s)] for s in cycle]) % 2 == 0])


def wintop_map(game: Mtg, profile: Profile) -> dict[str, frozenset[str]]:
    """Every player's set of winning topologies: one outcome per topology serves all players."""
    profile.check(game)
    won = {t: _winners(game, t, profile) for t in game.topologies}
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
        if self.total > (1 << 63) - 1:
            raise InputError(f"strategies with memory {m} over {self.n_states} states and "
                             f"{self.n_actions} actions are too many to index in 64 bits")

    def canonical_chunks(self, chunk_size: int = 1 << 15):
        """Yield (indices, update_tables, act_tables) for canonical strategies, in order.

        Only the kept indices' act tables are decoded; their update tables
        come from the distinct ones ``_kernels.canonical_range`` decoded.
        """
        from . import _kernels
        shape = (-1, self.m, self.n_states)
        for lo in range(0, self.total, chunk_size):
            hi = min(lo + chunk_size, self.total)
            keep, upd, row = _kernels.canonical_range(lo, hi, self.m, self.n_states,
                                                      self.n_actions)
            kept = keep.nonzero()[0]
            if len(kept):
                indices = lo + kept
                act = _kernels.decode_tables(indices % self.n_act_tables, self.cells,
                                             self.n_actions)
                yield indices, upd[row[kept]].reshape(shape), act.reshape(shape)

    def strategy_at(self, index: int) -> MooreStrategy:
        """Materialize the strategy with the given block index."""
        upd, act = divmod(int(index), self.n_act_tables)
        mems = tuple(f"m{i}" for i in range(self.m))
        nxt, acts = [], []
        for _ in range(self.cells):  # the last cell is each table's least significant digit
            upd, u = divmod(upd, self.m)
            act, a = divmod(act, self.n_actions)
            nxt.append(mems[u])
            acts.append(self.game.actions[a])
        cells = [(m, s) for m in mems for s in self.game.states]  # keys shared by both tables
        return MooreStrategy(memory=mems, init="m0", update=dict(zip(cells, reversed(nxt))),
                             act=dict(zip(cells, reversed(acts))))


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
