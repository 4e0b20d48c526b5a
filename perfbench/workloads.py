"""The four benchmark workloads, each a closed loop of operations on mtgames' public API.

An operation is one unit a user waits for: a search, one profile's full set
of equilibrium checks, or one CLI command. ``rounds()`` yields the operations
in fixed rounds; a run stops only at a round boundary, so every run sees the
same mix. Each operation's output is checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import mtgames
from mtgames import equilibria, generate, io, search, strategy

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = "src/mtgames/data"
OUT = ".perfbench-out"
DEFAULT_SEED = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # check(result) -> (correct, units of work done, extra trace counters)
    check: Callable[[object], tuple[bool, int, dict]]


def load_golden(name: str):
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# search-sweep and search-screen: fixed bundled instances, the seed is unused


def bundled_inputs():
    games = {name: io.load_game(f"{DATA}/{name}.game") for name in ("fig3", "router", "xor")}
    targets = io.load_targets(f"{DATA}/router-all.tt", games["router"])
    return games, targets


XOR_BUDGET = 150_000

# name -> (bundled game, the search on it), called through the module so a
# tracer's wrappers apply
SEARCHES = {
    "fig3-gne-m3": ("fig3", lambda game, targets: mtgames.search.find_gne(game, 3, jobs=1)),
    "router-target-m2": ("router", lambda game, targets: mtgames.search.find_profile_with_wintop(
        game, targets, 2, jobs=1)),
    "xor-gne-m2-budget": ("xor", lambda game, targets: mtgames.search.find_gne(
        game, 2, budget=XOR_BUDGET, jobs=1)),
}


def search_outcome(result: search.SearchResult, game) -> dict:
    profile = None
    if result.profile is not None:
        profile = io.dumps_canonical(io.profile_to_dict(result.profile, game))
    return {"status": result.status, "examined": result.examined, "profile": profile}


class SearchWorkload:
    unit = "candidates"
    tail = None  # a few searches per run: the tail reported is the slowest one
    trace_rounds = 1

    def __init__(self, names: list[str]):
        games, targets = bundled_inputs()
        expected = load_golden("search.json")
        self.round = [self._op(name, games[SEARCHES[name][0]], targets, expected[name])
                      for name in names]
        # warm-up: the same code paths on a tiny space
        search.find_gne(games["fig3"], 1, jobs=1)
        search.find_profile_with_wintop(games["router"], targets, 1, jobs=1)
        search.find_gne(games["xor"], 1, budget=100, jobs=1)

    @staticmethod
    def _op(name, game, targets, want) -> Op:
        call = SEARCHES[name][1]

        def check(result):
            return search_outcome(result, game) == want, result.examined, {}
        return Op(name, lambda: call(game, targets), check)

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield self.round


def search_sweep(seed: int) -> SearchWorkload:
    return SearchWorkload(["fig3-gne-m3"])


def search_screen(seed: int) -> SearchWorkload:
    return SearchWorkload(["router-target-m2", "xor-gne-m2-budget"])


# ---------------------------------------------------------------------------
# verify-mixed: a seeded corpus of random games and profiles

SHALLOW_GAMES = 400
DEEP_EVERY = 40          # one deep item after every 40 shallow profiles
VERDICT_CODES = "0123456789abcdefghijklmnopqrstuv"

# The acceptance criterion-6 distribution of (players, states, actions,
# topologies), and the deep items' (states, memory, memory), each as a fixed
# cycle of its equally likely combinations: every seed's corpus then has the
# same mix of game sizes in the same order, and only the games' transitions,
# priorities and strategies depend on the seed. A run covers a prefix of the
# corpus, so this keeps the seed from changing how much work a run holds.
SHALLOW_SHAPES = list(itertools.product([1, 2, 2, 2], [2, 3, 4], [1, 2, 2, 2], [1, 2, 2, 2]))
DEEP_SHAPES = list(itertools.product([4, 5, 6], [2, 3], [2, 3]))
random.Random(0).shuffle(SHALLOW_SHAPES)
random.Random(0).shuffle(DEEP_SHAPES)


@dataclass
class Item:
    game_id: int
    game: mtgames.Mtg
    profile: mtgames.Profile
    deep: bool


def _memoryless_profiles(game):
    per_player = [list(strategy.enumerate_strategies(game, 1)) for _ in game.players]
    return [mtgames.Profile(tuple(c)) for c in itertools.product(*per_player)]


def build_corpus(seed: int) -> list[Item]:
    rng = random.Random(seed)
    deep_rng = random.Random(f"deep-{seed}")
    items: list[Item] = []
    shallow = 0
    for g in range(SHALLOW_GAMES):
        players, states, actions, tops = SHALLOW_SHAPES[g % len(SHALLOW_SHAPES)]
        game = generate.random_mtg(rng, n_players=players, n_states=states,
                                   n_actions=actions, n_topologies=tops)
        for profile in _memoryless_profiles(game):
            items.append(Item(g, game, profile, False))
            shallow += 1
            if shallow % DEEP_EVERY == 0:
                shape = DEEP_SHAPES[(shallow // DEEP_EVERY) % len(DEEP_SHAPES)]
                items.append(_deep_item(deep_rng, -len(items) - 1, *shape))
    return items


def _deep_item(rng: random.Random, game_id: int, states: int, *memory: int) -> Item:
    game = generate.random_mtg(rng, n_players=2, n_states=states, n_actions=2,
                               n_topologies=3, max_priority=8)
    profile = mtgames.Profile(tuple(generate.random_strategy(rng, game, m) for m in memory))
    return Item(game_id, game, profile, True)


def verdicts(game, profile, oracle):
    """One profile's full set of exact checks, as a user of the library runs them."""
    gne = mtgames.equilibria.check_gne(game, profile, oracle=oracle)
    cne = mtgames.equilibria.check_cne(game, profile, oracle=oracle)
    nes = [mtgames.equilibria.check_ne(game, t, profile) for t in game.topologies]
    return gne, cne, nes


def verdict_code(gne, cne, nes) -> str:
    bits = int(gne.verdict) | int(cne.verdict) << 1
    for k, r in enumerate(nes):
        bits |= int(r.verdict) << (2 + k)
    return VERDICT_CODES[bits]


def _improves(game, profile, report) -> bool:
    """Replay a negative verdict's witness through strategy.wintop, from outside."""
    w = report.witness
    if w is None:
        return False
    di = game.players.index(w.player)
    now = strategy.wintop(game, profile, w.player)
    achieved = strategy.wintop(game, profile.substitute(di, w.strategy), w.player)
    if not w.targets <= achieved:
        return False
    if report.kind == "gne":
        return bool(achieved - now)
    if report.kind == "cne":
        return now < achieved
    return report.topology in achieved and report.topology not in now


def check_verdicts(item: Item, result) -> bool:
    gne, cne, nes = result
    ok = True
    if gne.verdict:
        ok &= cne.verdict and all(r.verdict for r in nes)
    if len(item.game.topologies) == 1:
        ok &= gne.verdict == cne.verdict == nes[0].verdict
    for report in (gne, cne, *nes):
        if not report.verdict:
            ok &= _improves(item.game, item.profile, report)
    return ok


def corpus_pass(corpus: list[Item]):
    """(position, item, oracle) over the corpus with fresh oracles: one per
    shallow game, shared by its profiles, and one per deep item."""
    oracle, game_id = None, None
    for pos, item in enumerate(corpus):
        if item.deep:
            yield pos, item, equilibria.DeviationOracle(item.game)
            continue
        if item.game_id != game_id:
            game_id, oracle = item.game_id, equilibria.DeviationOracle(item.game)
        yield pos, item, oracle


class VerifyWorkload:
    unit = "profiles"
    tail = 99
    trace_rounds = 1500

    def __init__(self, seed: int):
        self.corpus = build_corpus(seed)
        self.golden = None
        if seed == DEFAULT_SEED:
            self.golden = load_golden(f"verify-mixed-seed{DEFAULT_SEED}.json")["verdicts"]
        # warm-up on a separate pass
        for _, (op,) in zip(range(40), self.rounds()):
            op.check(op.run())

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            for pos, item, oracle in corpus_pass(self.corpus):
                yield [self._op(pos, item, oracle)]

    def _op(self, pos: int, item: Item, oracle) -> Op:
        def check(result):
            ok = check_verdicts(item, result)
            if self.golden is not None:
                ok &= verdict_code(*result) == self.golden[pos]
            return ok, 1, {}
        return Op("deep" if item.deep else "shallow",
                  lambda: verdicts(item.game, item.profile, oracle), check)


# ---------------------------------------------------------------------------
# cli-readme: the README's short commands on the bundled files, in process


def cli_commands() -> list[list[str]]:
    """Fifteen commands: seven fast ones, `find gne xor --memory 1` in the
    middle and seven slow ones, so the median lands inside one command's
    times, as does p90 (`reduce cne`), not in a gap between two commands."""
    d = DATA
    router, profile, tt = f"{d}/router.game", f"{d}/turn-taking.profile", f"{d}/router-all.tt"
    return [
        ["validate", router],
        ["outcome", router, profile, "--topology", "A"],
        ["wintop", router, profile],
        ["check", "ne", router, profile, "--topology", "A"],
        ["check", "gne", router, profile],
        ["check", "cne", router, profile],
        ["reduce", "cne", router, "--targets", tt, "--out", f"{OUT}/h-cne.json"],
        ["reduce", "gne", router, "--targets", tt, "--out", f"{OUT}/h-gne.json"],
        ["symmetrize", f"{d}/router-base.game", "--out", f"{OUT}/router-sym.game"],
        ["find", "gne", f"{d}/xor.game", "--memory", "1"],
        ["find", "gne", router, "--memory", "2"],
        ["find", "cne", f"{d}/xor.game", "--memory", "2"],
        ["oracle", "omega", router, "--kind", "cne", "--targets", tt],
        ["oracle", "gamma", router, "--kind", "gne", "--targets", tt],
        ["oracle", "deviation", router, profile, "--deviator", "blue", "--target-set", "A,B"],
    ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    import mtgames.cli

    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        code = mtgames.cli.main(argv)
    return code, out.getvalue()


class CliWorkload:
    unit = "commands"
    tail = 90
    trace_rounds = 10

    def __init__(self, seed: int):
        Path(OUT).mkdir(exist_ok=True)
        golden = {tuple(g["argv"]): g for g in load_golden("cli-readme.json")}
        self.round = [Op(" ".join(argv[:2]), self._runner(argv), self._checker(golden[tuple(argv)]))
                      for argv in cli_commands()]
        for op in self.round:
            op.check(op.run())

    @staticmethod
    def _runner(argv):
        return lambda: run_cli(argv)

    @staticmethod
    def _checker(want):
        def check(result):
            code, stdout = result
            ok = code == want["exit"] and stdout.encode() == want["stdout"].encode()
            return ok, 1, {"stdout_bytes": len(stdout.encode())}
        return check

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield self.round


WORKLOADS = {
    "search-sweep": search_sweep,
    "search-screen": search_screen,
    "verify-mixed": VerifyWorkload,
    "cli-readme": CliWorkload,
}
