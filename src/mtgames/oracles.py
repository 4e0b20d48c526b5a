"""Brute-force oracles: slow, independent routes that cross-check the fast paths.

Three oracles are exposed (also via the command line):

* ``omega``: on an enumerable challenge-game instance, compare the semantic
  objective clauses with the rank parity on every reachable lasso whose cycle
  has at most a given length. Both sides depend only on a cycle's state set,
  and cycles never mix commitments or obedience bits, so the enumeration runs
  slice by slice with a subset dynamic program. It numbers a slice's states
  0..n-1 and keys on (state id, visited-set bitmask), so no state is hashed
  inside the loop. One BFS tree from the start gives the reachable states
  and each lasso's prefix: the tree path to the cycle's first state.
* ``gamma``: sample a profile, a start choice and a finite-memory deviating
  strategy, and check the projected challenge-game play against the plays it
  must mirror.
* ``deviation``: sweep the deviator's strategies up to a memory bound with
  the batch kernels, in enumeration order, stop at the first that wins every
  target, and compare the answer against the exact deviation checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import InputError, Lasso, Mtg, compile_tables
from .equilibria import _question, can_deviator_win_set
from .generate import random_profile, random_strategy
from .reductions import (START, PartialInfoGame, gamma_roundtrip, rank_parity,
                         semantic_objective)
from .strategy import Profile, StrategyBlock, wintop


# ---------------------------------------------------------------------------
# rank vs semantics


def _reachable_cycle_sets(nodes: list, succ: dict, bound: int, name) -> list[tuple[list, list]]:
    """Each state set of closed walks of length <= bound within ``nodes``, with one walk.

    Dynamic program over (node id, visited-set bitmask): two walks meeting the
    same pair have interchangeable continuations, so the state space is tiny.
    Sets come as sorted ``name``s; ids map back to states only for the output.
    """
    ids = {q: i for i, q in enumerate(nodes)}
    out = [[ids[w] for w in succ[q] if w in ids] for q in nodes]
    found: dict[int, list[int]] = {}
    for start in range(len(nodes)):
        # layer: (node, visited bitmask) -> witness path from start (node ids)
        layer = {(start, 1 << start): [start]}
        for _ in range(bound):
            nxt: dict[tuple[int, int], list[int]] = {}
            for (v, seen), path in layer.items():
                for w in out[v]:
                    if w == start and seen not in found:
                        found[seen] = path
                    key = (w, seen | 1 << w)
                    if key not in nxt:
                        nxt[key] = path + [w]
            layer = nxt
    return sorted(((sorted(name(q) for i, q in enumerate(nodes) if seen >> i & 1),
                    [nodes[i] for i in walk]) for seen, walk in found.items()),
                  key=lambda c: c[0])


@dataclass
class OmegaAgreement:
    checked: int
    disagreements: list


def omega_rank_agreement(h: PartialInfoGame, cycle_bound: int = 8) -> OmegaAgreement:
    """Compare semantic objective and rank parity on every reachable short-cycled lasso."""
    if cycle_bound < 1:
        raise InputError(f"cycle bound must be >= 1, got {cycle_bound}")
    order = {q: i for i, q in enumerate(h.states)}
    succ_all = {q: sorted(ws, key=order.__getitem__) for q, ws in h.successor_sets().items()}
    # one BFS tree from the start: its keys are the reachable states, and its
    # parent links give each a shortest prefix
    parent = {h.initial: None}
    layer = [h.initial]
    while layer:
        nxt = []
        for v in layer:
            for w in succ_all[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        layer = nxt

    slices: dict[tuple, list] = {}
    for q in h.states:
        if q != START and q in parent:
            slices.setdefault((q.p, q.T, q.t, q.b), []).append(q)

    # slices and cycle sets go by state name, the same in every process
    name = h.ids.__getitem__
    checked = 0
    disagreements = []
    for nodes in sorted(slices.values(), key=lambda nodes: name(nodes[0])):
        # commitments are constant and the obedience bit is monotone, so every
        # cycle stays inside one slice; walks never need to leave it
        for cycle_states, walk in _reachable_cycle_sets(nodes, succ_all, cycle_bound, name):
            prefix = []
            v = walk[0]
            while (v := parent[v]) is not None:
                prefix.append(v)
            lasso = Lasso(prefix=tuple(reversed(prefix)), cycle=tuple(walk))
            checked += 1
            sem = semantic_objective(h, lasso)
            par = rank_parity(h, lasso)
            if sem != par:
                disagreements.append({"cycle_states": cycle_states,
                                      "semantic": sem, "rank_parity": par})
    return OmegaAgreement(checked=checked, disagreements=disagreements)


# ---------------------------------------------------------------------------
# correspondence sampling


@dataclass
class GammaSample:
    samples: int
    mismatches: list


def gamma_sample(h: PartialInfoGame, samples: int, seed: int, memory: int = 2) -> GammaSample:
    """Check the play correspondence on sampled profiles, start choices and strategies."""
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    if memory < 1:
        raise InputError(f"memory bound must be >= 1, got {memory}")
    rng = random.Random(seed)
    mismatches = []
    start_choices = h.start_choices()
    for i in range(samples):
        profile = random_profile(rng, h.game, memory)
        choice = rng.choice(start_choices)
        strat = random_strategy(rng, h.game, rng.randint(1, memory))
        report = gamma_roundtrip(h, profile, strat, choice)
        if not report.ok():
            mismatches.append({"sample": i, "report": report})
    return GammaSample(samples=samples, mismatches=mismatches)


# ---------------------------------------------------------------------------
# deviation brute force


def brute_force_deviation(game: Mtg, profile: Profile, deviator: str,
                          targets: frozenset[str], memory_bound: int
                          ) -> tuple[bool, object | None]:
    """The first deviation, in enumeration order, that wins every target topology.

    The question is checked as the exact checker checks it. Each memory size's
    block is swept range by range with ``_kernels.sweep_block``, and the scan
    stops at the first kept strategy whose winning set covers the targets.
    Sound but incomplete in the negative direction: a False verdict only says
    no strategy with at most ``memory_bound`` memory states works.
    """
    targets = _question(game, profile, deviator, targets)
    if memory_bound < 1:
        raise InputError(f"memory bound must be >= 1, got {memory_bound}")
    idx = compile_tables(game)
    want = sum(1 << game.topologies.index(t) for t in targets)
    di = game.players.index(deviator)
    fixed = [None if q == di else strat.tables(game) for q, strat in enumerate(profile.by_player)]
    chunk = 1 << 17
    for m in range(1, memory_bound + 1):
        block = StrategyBlock(game, m)
        for lo in range(0, block.total, chunk):
            keep, bits = _kernels.sweep_block(idx.delta, idx.prio, fixed, di, m,
                                              lo, min(lo + chunk, block.total),
                                              idx.initial, idx.n_actions)
            hit = np.flatnonzero(keep & ((bits & want) == want))
            if len(hit):
                return True, block.strategy_at(lo + int(hit[0]))
    return False, None


@dataclass
class DeviationComparison:
    checker: bool
    brute: bool
    hard_failure: bool
    witness_ok: bool | None


def compare_deviation_checker(game: Mtg, profile: Profile, deviator: str,
                              targets: frozenset[str], memory_bound: int = 2
                              ) -> DeviationComparison:
    """Exact checker vs bounded brute force on one deviation question.

    The brute force finding a deviation while the checker denies one is a hard
    failure; the converse only means the witness needs more memory than the
    bound, in which case the checker's witness replay is re-validated here.
    """
    brute, _ = brute_force_deviation(game, profile, deviator, targets, memory_bound)
    checker, strat = can_deviator_win_set(game, profile, deviator, targets)
    witness_ok: bool | None = None
    if checker:
        di = game.players.index(deviator)
        achieved = wintop(game, profile.substitute(di, strat), deviator)
        witness_ok = targets <= achieved
    return DeviationComparison(checker=checker, brute=brute,
                               hard_failure=brute and not checker,
                               witness_ok=witness_ok)
