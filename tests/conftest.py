import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from mtgames.examples import (example_turn_taking_profile, fig3_game, router_base_game,
                              router_game, xor_game)


@pytest.fixture(scope="session")
def router():
    return router_game()


@pytest.fixture(scope="session")
def router_base():
    return router_base_game()


@pytest.fixture(scope="session")
def fig3():
    return fig3_game()


@pytest.fixture(scope="session")
def xor():
    return xor_game()


@pytest.fixture(scope="session")
def turn_taking(router):
    return example_turn_taking_profile(router)
