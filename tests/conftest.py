import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

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
