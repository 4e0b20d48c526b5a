"""Seeded random instances for property testing and the brute-force oracles."""

from __future__ import annotations

import random

from .arena import SEEKER, Arena
from .core import Mtg
from .strategy import MooreStrategy, Profile


def random_mtg(rng: random.Random, n_players: int = 2, n_states: int = 3,
               n_actions: int = 2, n_topologies: int = 2, max_priority: int = 3) -> Mtg:
    max_priority = min(max_priority, 2 * n_states)
    players = tuple(f"p{i}" for i in range(n_players))
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(str(i) for i in range(n_actions))
    topologies = tuple(f"t{i}" for i in range(n_topologies))
    import itertools
    profiles = [tuple(pr) for pr in itertools.product(actions, repeat=n_players)]
    transition = {}
    priority = {}
    for t in topologies:
        for s in states:
            for prof in profiles:
                transition[(t, s, prof)] = rng.choice(states)
        for p in players:
            for s in states:
                priority[(t, p, s)] = rng.randrange(0, max_priority + 1)
    return Mtg(players=players, states=states, initial=states[0], actions=actions,
               topologies=topologies, transition=transition, priority=priority)


def random_strategy(rng: random.Random, game: Mtg, memory: int) -> MooreStrategy:
    mems = tuple(f"m{i}" for i in range(memory))
    update = {}
    act = {}
    for m in mems:
        for s in game.states:
            cell = (m, s)  # one key tuple for both tables saves memory
            update[cell] = rng.choice(mems)
            act[cell] = rng.choice(game.actions)
    return MooreStrategy(memory=mems, init="m0", update=update, act=act)


def random_profile(rng: random.Random, game: Mtg, memory: int) -> Profile:
    return Profile(tuple(random_strategy(rng, game, rng.randint(1, memory))
                         for _ in game.players))


def random_arena(rng: random.Random, n_nodes: int = 8, k: int = 1,
                 max_priority: int = 3, max_succ: int = 2,
                 all_seeker: bool = False) -> Arena:
    owner = [SEEKER if all_seeker else rng.randint(0, 1) for _ in range(n_nodes)]
    succ = []
    for _ in range(n_nodes):
        fan = rng.randint(1, max_succ)
        row = sorted(rng.sample(range(n_nodes), min(fan, n_nodes)))
        succ.append(row)
    labels = [[None] * len(row) for row in succ]
    priorities = [tuple(rng.randrange(0, max_priority + 1) for _ in range(k))
                  for _ in range(n_nodes)]
    return Arena(nodes=list(range(n_nodes)), owner=owner, succ=succ, labels=labels,
                 priorities=priorities, initial=0, k=k)


def forward_closed_set(rng: random.Random, arena: Arena, seed_count: int) -> set[int]:
    """A random node set closed under successors (used to build monotone masks)."""
    n = len(arena.nodes)
    closed: set[int] = set()
    frontier = [rng.randrange(n) for _ in range(seed_count)]
    while frontier:
        v = frontier.pop()
        if v in closed:
            continue
        closed.add(v)
        frontier.extend(arena.succ[v])
    return closed
