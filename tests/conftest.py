import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from mtgames.core import Mtg
from mtgames.io import data_path, load_game, load_profile


@pytest.fixture(scope="session")
def router():
    return load_game(data_path("router.game"))


@pytest.fixture(scope="session")
def router_base():
    return load_game(data_path("router-base.game"))


@pytest.fixture(scope="session")
def fig3():
    return load_game(data_path("fig3.game"))


@pytest.fixture(scope="session")
def xor():
    return load_game(data_path("xor.game"))


@pytest.fixture(scope="session")
def turn_taking(router):
    return load_profile(data_path("turn-taking.profile"), router)


def _one_action_game(players, states, topologies):
    """The one action leads every state to the last state; every priority is 0."""
    moves = ("0",) * len(players)
    return Mtg(players=players, states=states, initial=states[0], actions=("0",),
               topologies=topologies,
               transition={(t, s, moves): states[-1] for t in topologies for s in states},
               priority={(t, p, s): 0 for t in topologies for p in players for s in states})


@pytest.fixture(scope="session")
def colliding():
    """(game, targets) per kind whose challenge game would name two states alike:
    a state's id joins its fields with '|', and a challenge set's topologies with '+'."""
    gne = _one_action_game(("b|c", "c"), ("a", "a|b"), ("t",))
    cne = _one_action_game(("p",), ("s",), ("x", "y", "x+y"))
    return {"gne": (gne, {"b|c": frozenset(), "c": frozenset()}),
            "cne": (cne, {"p": frozenset({"x"})})}
