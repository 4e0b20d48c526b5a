"""The validation boundary: public entry points check their input once.

Every public function that takes a profile rejects a malformed one with
``InputError``, whatever layer it sits in. Inside a check the profile is
checked once, by ``wintop_map``, and every deviation question after that goes
to the unchecked ``_``-prefixed helpers; only the witness strategies built
there are checked, each once, before they are replayed.
"""

import json
import random
from dataclasses import replace

import pytest

from mtgames import io as mio
from mtgames.core import InputError
from mtgames.equilibria import (DeviationOracle, build_knowledge_arena, build_residual_arena,
                                can_deviator_win_set, check_cne, check_gne, check_ne)
from mtgames.generate import random_mtg, random_profile
from mtgames.io import data_path
from mtgames.oracles import compare_deviation_checker
from mtgames.reductions import build_gne_game, gamma_roundtrip, simulate_h
from mtgames.strategy import MooreStrategy, Profile, outcome, winners, wintop, wintop_map

DEFECTS = ["wrong length", "missing cell", "update target", "unknown action"]


def malformed(profile: Profile, defect: str) -> Profile:
    """``profile`` with one defect in its first strategy (or in its length)."""
    if defect == "wrong length":
        return Profile(profile.by_player[:1])
    first = profile.by_player[0]
    cell = (first.init, next(iter(first.update))[1])
    update, act = dict(first.update), dict(first.act)
    if defect == "missing cell":
        del update[cell]
    elif defect == "update target":
        update[cell] = "m9"
    else:
        act[cell] = "zz"
    return Profile((replace(first, update=update, act=act), *profile.by_player[1:]))


@pytest.fixture(scope="module")
def router_gne(router):
    return build_gne_game(router, {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})})


def entry_points(router, router_gne, turn_taking):
    """Every public call that takes a profile, as ``name -> call(profile)``.

    The deviator is red, so blue's malformed strategy is a co-strategy."""
    red = turn_taking.by_player[1]
    both = frozenset({"A", "B"})
    return {
        "outcome": lambda prof: outcome(router, "A", prof),
        "winners": lambda prof: winners(router, "A", prof),
        "wintop": lambda prof: wintop(router, prof, "red"),
        "wintop_map": lambda prof: wintop_map(router, prof),
        "check_ne": lambda prof: check_ne(router, "A", prof),
        "check_gne": lambda prof: check_gne(router, prof),
        "check_cne": lambda prof: check_cne(router, prof),
        "build_residual_arena": lambda prof: build_residual_arena(router, prof, "red", "A"),
        "build_knowledge_arena": lambda prof: build_knowledge_arena(router, prof, "red", both),
        "can_deviator_win_set":
            lambda prof: can_deviator_win_set(router, prof, "red", frozenset({"A"})),
        "DeviationOracle.can_win":
            lambda prof: DeviationOracle(router).can_win(prof, "red", frozenset({"A"})),
        "compare_deviation_checker": lambda prof: compare_deviation_checker(
            router, prof, "red", frozenset({"A"}), memory_bound=1),
        "simulate_h": lambda prof: simulate_h(router_gne, prof, red, ("red", None, "A")),
        "gamma_roundtrip": lambda prof: gamma_roundtrip(router_gne, prof, red,
                                                        ("red", None, "A")),
    }


@pytest.mark.parametrize("defect", DEFECTS)
def test_every_entry_point_rejects_a_malformed_profile(router, router_gne, turn_taking,
                                                       defect):
    bad = malformed(turn_taking, defect)
    for name, call in entry_points(router, router_gne, turn_taking).items():
        call(turn_taking)
        with pytest.raises(InputError):
            call(bad)
            pytest.fail(f"{name} accepted a profile with {defect}")


@pytest.mark.parametrize("defect", DEFECTS)
def test_profile_loader_rejects_the_same_defects(router, defect):
    doc = json.loads(data_path("turn-taking.profile").read_text())
    blue = doc["players"]["blue"]
    if defect == "wrong length":
        del doc["players"]["red"]
    elif defect == "missing cell":
        del blue["update"][0]
    elif defect == "update target":
        blue["update"][0]["next"] = "m9"
    else:
        blue["act"][0]["action"] = "zz"
    with pytest.raises(InputError):
        mio.profile_from_dict(doc, router)


def test_profile_loader_rejects_an_unknown_player(router):
    doc = json.loads(data_path("turn-taking.profile").read_text())
    doc["players"]["green"] = doc["players"]["blue"]
    with pytest.raises(InputError, match=r"unknown players \['green'\]"):
        mio.profile_from_dict(doc, router)


@pytest.mark.parametrize("seed", range(8))
def test_each_public_call_checks_its_profile_once(monkeypatch, seed):
    rng = random.Random(seed)
    game = random_mtg(rng, n_players=2, n_states=rng.randint(2, 4),
                      n_topologies=rng.randint(2, 3))
    profile = random_profile(rng, game, memory=2)
    counts = {"profile": 0, "strategy": 0}
    check_profile, check_strategy = Profile.check, MooreStrategy.check

    def spy_profile(self, game):
        counts["profile"] += 1
        return check_profile(self, game)

    def spy_strategy(self, game, where="strategy"):
        counts["strategy"] += 1
        return check_strategy(self, game, where)

    monkeypatch.setattr(Profile, "check", spy_profile)
    monkeypatch.setattr(MooreStrategy, "check", spy_strategy)
    t = game.topologies[0]
    calls = [lambda: outcome(game, t, profile), lambda: wintop_map(game, profile)]
    checks = [lambda: check_gne(game, profile), lambda: check_cne(game, profile)]
    checks += [lambda t=t: check_ne(game, t, profile) for t in game.topologies]
    for call in calls + checks:
        counts.update(profile=0, strategy=0)
        result = call()
        assert counts["profile"] == 1
        # one check per strategy of the profile, and one for a refuting witness
        witnesses = int(call in checks and not result.verdict)
        assert counts["strategy"] == len(game.players) + witnesses
