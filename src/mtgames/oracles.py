"""Brute-force oracles: slow, independent routes that cross-check the fast paths.

Three oracles are exposed (also via the command line):

* ``omega``: on an enumerable challenge-game instance, compare the semantic
  objective clauses with the rank parity on every reachable lasso whose cycle
  has at most a given length. Both sides depend only on a cycle's state set,
  and cycles never mix commitments or obedience bits, so the enumeration runs
  slice by slice with a subset dynamic program.
* ``gamma``: sample finite-memory commitments and check the projected
  challenge-game play against the plays it must mirror.
* ``deviation``: exhaustively sweep deviator strategies up to a memory bound
  with the batch kernels and compare against the exact deviation checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import InputError, Mtg, compile_tables
from .equilibria import can_deviator_win_set
from .generate import random_profile, random_strategy
from .reductions import (START, DeviationChoice, HLasso, PartialInfoGame,
                         gamma_roundtrip, rank_parity, semantic_objective)
from .strategy import Profile, StrategyBlock, wintop


# ---------------------------------------------------------------------------
# rank vs semantics


def _slice_key(q) -> tuple:
    return (q.p, q.T, q.t, q.b)


def _reachable_cycle_sets(nodes: list, succ: dict, bound: int) -> list[tuple[frozenset, list]]:
    """All state sets of closed walks of length <= bound, with one witness walk each.

    Dynamic program over (current node, visited set); two walks meeting the
    same pair have interchangeable continuations, so the state space is tiny.
    """
    found: dict[frozenset, list] = {}
    for start in nodes:
        # layer: (node, frozenset) -> witness path from start (node sequence)
        layer: dict[tuple, list] = {(start, frozenset({start})): [start]}
        for _ in range(bound):
            nxt: dict[tuple, list] = {}
            for (v, seen), path in layer.items():
                for w in succ[v]:
                    if w == start:
                        if seen not in found:
                            found[seen] = path
                    key = (w, seen | {w})
                    if key not in nxt:
                        nxt[key] = path + [w]
            layer = nxt
    return sorted(found.items(), key=lambda kv: sorted(map(str, kv[0])))


@dataclass
class OmegaAgreement:
    checked: int
    disagreements: list


def omega_rank_agreement(h: PartialInfoGame, cycle_bound: int = 8) -> OmegaAgreement:
    """Compare semantic objective and rank parity on every reachable short-cycled lasso."""
    succ_all = {q: sorted(ws, key=h.states.index) for q, ws in h.successor_sets().items()}
    # reachability from the start state
    reach = {h.initial}
    frontier = [h.initial]
    while frontier:
        v = frontier.pop()
        for w in succ_all[v]:
            if w not in reach:
                reach.add(w)
                frontier.append(w)

    slices: dict[tuple, list] = {}
    for q in h.states:
        if q == START or q not in reach:
            continue
        slices.setdefault(_slice_key(q), []).append(q)

    # prefix search works on the full reachable graph
    def prefix_to(target) -> list:
        prev = {h.initial: None}
        layer = [h.initial]
        while layer:
            nxt = []
            for v in layer:
                for w in succ_all[v]:
                    if w not in prev:
                        prev[w] = v
                        if w == target:
                            path = [w]
                            while prev[path[-1]] is not None:
                                path.append(prev[path[-1]])
                            return path[::-1]
                        nxt.append(w)
            layer = nxt
        raise AssertionError("target unreachable")

    checked = 0
    disagreements = []
    for key in sorted(slices, key=str):
        nodes = slices[key]
        members = set(nodes)
        # commitments are constant and the obedience bit is monotone, so every
        # cycle stays inside one slice; walks never need to leave it
        inner = {q: [w for w in succ_all[q] if w in members] for q in nodes}
        for cyc_set, walk in _reachable_cycle_sets(nodes, inner, cycle_bound):
            path = prefix_to(walk[0])
            lasso = HLasso(prefix=tuple(path[:-1]), cycle=tuple(walk))
            checked += 1
            sem = semantic_objective(h, lasso)
            par = rank_parity(h, lasso)
            if sem != par:
                disagreements.append({"cycle_states": sorted(map(str, cyc_set)),
                                      "semantic": sem, "rank_parity": par})
    return OmegaAgreement(checked=checked, disagreements=disagreements)


# ---------------------------------------------------------------------------
# correspondence sampling


@dataclass
class GammaSample:
    samples: int
    mismatches: list


def gamma_sample(game: Mtg, h: PartialInfoGame, samples: int, seed: int,
                 memory: int = 2) -> GammaSample:
    """Sample finite-memory commitments and verify the play correspondence."""
    rng = random.Random(seed)
    mismatches = []
    start_choices = h.start_choices()
    for i in range(samples):
        profile = random_profile(rng, game, memory)
        choice = rng.choice(start_choices)
        strat = random_strategy(rng, game, rng.randint(1, memory))
        if h.kind == "cne":
            deviation = DeviationChoice(player=choice[0], strategy=strat,
                                        topologies=choice[1])
            resolved = rng.choice(game.topologies)
            report = gamma_roundtrip(game, h, profile, deviation, resolved)
        else:
            deviation = DeviationChoice(player=choice[0], strategy=strat,
                                        topology=choice[1])
            report = gamma_roundtrip(game, h, profile, deviation)
        if not report.ok():
            mismatches.append({"sample": i, "report": report})
    return GammaSample(samples=samples, mismatches=mismatches)


# ---------------------------------------------------------------------------
# deviation brute force


def deviator_wintop_masks(game: Mtg, profile: Profile, deviator: str,
                          memory_bound: int, backend: str | None = None
                          ) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Winning-topology bitmasks of every deviator strategy up to the bound.

    Returns one ``(memory_size, indices, masks)`` triple per memory size;
    ``masks[i]`` has bit ``t`` set iff strategy ``indices[i]`` of that block
    wins topology ``t`` (in topology order) against the fixed co-strategies.
    """
    if deviator not in game.players:
        raise InputError(f"unknown player {deviator!r}")
    if memory_bound < 1:
        raise InputError(f"memory bound must be >= 1, got {memory_bound}")
    idx = compile_tables(game)
    di = game.players.index(deviator)
    fixed: list = [strat.tables(game) for strat in profile.by_player]
    fixed[di] = None
    out = []
    chunk = 1 << 17
    for m in range(1, memory_bound + 1):
        block = StrategyBlock(game, m)
        all_idx = []
        all_masks = []
        for lo in range(0, block.total, chunk):
            hi = min(lo + chunk, block.total)
            keep, bits = _kernels.sweep_block(idx.delta, idx.prio, fixed, di, m,
                                              lo, hi, idx.initial, idx.n_actions,
                                              backend=backend)
            kept = np.nonzero(keep)[0]
            all_idx.append(kept + lo)
            all_masks.append(bits[kept])
        out.append((m, np.concatenate(all_idx) if all_idx else np.zeros(0, dtype=np.int64),
                    np.concatenate(all_masks) if all_masks else np.zeros(0, dtype=np.int64)))
    return out


def brute_force_deviation(game: Mtg, profile: Profile, deviator: str,
                          targets: frozenset[str], memory_bound: int,
                          backend: str | None = None) -> tuple[bool, object | None]:
    """Exhaustive bounded search for a deviation winning every target topology.

    Sound but incomplete in the negative direction: a False verdict only says
    no strategy with at most ``memory_bound`` memory states works.
    """
    want = 0
    for t in sorted(targets):
        if t not in game.topologies:
            raise InputError(f"unknown topology {t!r} in targets")
        want |= 1 << game.topologies.index(t)
    for m, indices, masks in deviator_wintop_masks(game, profile, deviator,
                                                   memory_bound, backend=backend):
        hit = np.nonzero((masks & want) == want)[0]
        if len(hit):
            block = StrategyBlock(game, m)
            return True, block.strategy_at(int(indices[hit[0]]))
    return False, None


@dataclass
class DeviationComparison:
    checker: bool
    brute: bool
    hard_failure: bool
    witness_ok: bool | None


def compare_deviation_checker(game: Mtg, profile: Profile, deviator: str,
                              targets: frozenset[str], memory_bound: int = 2,
                              backend: str | None = None) -> DeviationComparison:
    """Exact checker vs bounded brute force on one deviation question.

    The brute force finding a deviation while the checker denies one is a hard
    failure; the converse only means the witness needs more memory than the
    bound, in which case the checker's witness replay is re-validated here.
    """
    brute, _ = brute_force_deviation(game, profile, deviator, targets,
                                     memory_bound, backend=backend)
    checker, strat = can_deviator_win_set(game, profile, deviator, targets)
    witness_ok: bool | None = None
    if checker:
        di = game.players.index(deviator)
        achieved = wintop(game, profile.substitute(di, strat), deviator)
        witness_ok = targets <= achieved
    return DeviationComparison(checker=checker, brute=brute,
                               hard_failure=brute and not checker,
                               witness_ok=witness_ok)
