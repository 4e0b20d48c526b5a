import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgames.core import (InputError, Lasso, Mtg, check_lasso, parity_satisfied, step,
                          symmetrize, validate)
from mtgames.generate import random_mtg


class TestValidate:
    def test_router_is_clean(self, router):
        assert validate(router) == []

    def test_missing_transition_row_named(self, router):
        transition = dict(router.transition)
        del transition[("A", "ready", ("0", "0"))]
        broken = Mtg(players=router.players, states=router.states, initial=router.initial,
                     actions=router.actions, topologies=router.topologies,
                     transition=transition, priority=router.priority)
        defects = validate(broken)
        assert len(defects) == 1
        assert "(A, ready, ('0', '0'))" in defects[0]

    def test_dangling_initial(self, router):
        broken = Mtg(players=router.players, states=router.states, initial="nowhere",
                     actions=router.actions, topologies=router.topologies,
                     transition=router.transition, priority=router.priority)
        defects = validate(broken)
        assert any("initial" in d for d in defects)

    def test_priority_range_enforced(self, router):
        priority = dict(router.priority)
        priority[("A", "blue", "ready")] = 2 * len(router.states) + 1
        broken = Mtg(players=router.players, states=router.states, initial=router.initial,
                     actions=router.actions, topologies=router.topologies,
                     transition=router.transition, priority=priority)
        assert any("outside" in d for d in validate(broken))

    def test_duplicate_and_empty_identifier_lists_named(self, router):
        broken = Mtg(players=("blue", "blue"), states=router.states, initial=router.initial,
                     actions=(), topologies=router.topologies,
                     transition=router.transition, priority=router.priority)
        defects = validate(broken)
        assert "duplicate identifiers in players: ('blue', 'blue')" in defects
        assert "empty identifier list: actions" in defects


class TestStep:
    def test_router_priority_rule(self, router):
        assert step(router, "A", "ready", ("1", "1")) == "send1"
        assert step(router, "A", "ready", ("1", "0")) == "send1"
        assert step(router, "A", "ready", ("0", "1")) == "send2"

    def test_send_states_return_to_ready(self, router):
        for prof in router.action_profiles():
            assert step(router, "A", "send1", prof) == "ready"

    def test_swapped_assignment(self, router):
        assert step(router, "B", "ready", ("1", "0")) == "send2"
        assert step(router, "B", "ready", ("0", "1")) == "send1"

    def test_unknown_identifiers_rejected(self, router):
        with pytest.raises(InputError):
            step(router, "C", "ready", ("0", "0"))
        with pytest.raises(InputError):
            step(router, "A", "nowhere", ("0", "0"))
        with pytest.raises(InputError):
            step(router, "A", "ready", ("0", "2"))
        with pytest.raises(InputError, match=r"has 1 actions, expected 2"):
            step(router, "A", "ready", ("0",))

    def test_deterministic(self, router):
        results = {step(router, "A", "ready", ("1", "1")) for _ in range(5)}
        assert len(results) == 1


class TestParitySatisfied:
    def test_alternating_sends_win_blue(self, router):
        lasso = Lasso(prefix=(), cycle=("ready", "send2", "ready", "send1"), topology="A")
        assert parity_satisfied(router, "A", "blue", lasso)
        assert parity_satisfied(router, "A", "red", lasso)

    def test_idle_loop_loses_red(self, router):
        lasso = Lasso(prefix=(), cycle=("ready",), topology="A")
        assert not parity_satisfied(router, "A", "red", lasso)

    def test_fig3_wrong_sink(self, fig3):
        lasso = Lasso(prefix=("s0",), cycle=("s2",), topology="t1")
        assert not parity_satisfied(fig3, "t1", "solo", lasso)

    def test_illegal_lasso_rejected(self, router):
        with pytest.raises(InputError):
            parity_satisfied(router, "A", "blue",
                             Lasso(prefix=(), cycle=("send1", "send2")))
        idle = Lasso(prefix=(), cycle=("ready",))
        with pytest.raises(InputError, match="unknown player 'green'"):
            parity_satisfied(router, "A", "green", idle)
        for topology, lasso, message in (
                ("C", idle, "unknown topology 'C'"),
                ("A", Lasso(prefix=("ready",), cycle=()), "lasso cycle is empty"),
                ("A", Lasso(prefix=("ready",), cycle=("nowhere",)),
                 "unknown state 'nowhere' in lasso")):
            with pytest.raises(InputError, match=message):
                check_lasso(router, topology, lasso)
        with pytest.raises(InputError, match="lasso cycle is empty"):
            Lasso(prefix=("ready",), cycle=()).unroll(3)
        assert Lasso(prefix=("ready",), cycle=()).unroll(1) == ["ready"]

    def test_depends_only_on_cycle_set(self, router):
        base = Lasso(prefix=(), cycle=("ready", "send2", "ready", "send1"))
        for r in range(4):
            rotated = Lasso(prefix=base.cycle[:r], cycle=base.cycle[r:] + base.cycle[:r])
            if rotated.prefix and rotated.prefix[0] != router.initial:
                continue
            assert parity_satisfied(router, "A", "blue", rotated) == \
                parity_satisfied(router, "A", "blue", base)


class TestSymmetrize:
    def test_router_base_reproduces_both_topologies(self, router_base, router):
        expanded = symmetrize(router_base, 2)
        assert expanded.topologies == ("12", "21")
        rename = {"12": "A", "21": "B"}
        for (t, s, prof), target in expanded.transition.items():
            assert router.transition[(rename[t], s, prof)] == target
        for (t, p, s), v in expanded.priority.items():
            assert router.priority[(rename[t], p, s)] == v

    def test_identity_topology_reproduces_base(self, router_base):
        expanded = symmetrize(router_base, 2)
        for s in router_base.states:
            for prof in router_base.action_profiles():
                assert expanded.transition[("12", s, prof)] == \
                    router_base.transition[("base", s, prof)]

    def test_symmetric_objectives_erase_permutation_effect(self):
        # both players win everything: permuting objectives changes nothing
        rng = random.Random(5)
        base = random_mtg(rng, n_players=2, n_states=2, n_topologies=1, max_priority=0)
        expanded = symmetrize(base, 2)
        for t in expanded.topologies:
            for p in expanded.players:
                for s in expanded.states:
                    assert expanded.priority[(t, p, s)] == 0

    def test_three_player_permutation_oracle(self):
        rng = random.Random(11)
        base = random_mtg(rng, n_players=3, n_states=2, n_actions=2, n_topologies=1)
        expanded = symmetrize(base, 3)
        assert len(expanded.topologies) == 6
        perms = list(itertools.permutations(range(3)))
        for perm, name in zip(perms, expanded.topologies):
            for s in base.states:
                for prof in base.action_profiles():
                    permuted = [None] * 3
                    for i, a in enumerate(prof):
                        permuted[perm[i]] = a
                    want = base.transition[("t0", s, tuple(permuted))]
                    assert expanded.transition[(name, s, prof)] == want
            for i, p in enumerate(base.players):
                for s in base.states:
                    assert expanded.priority[(name, p, s)] == \
                        base.priority[("t0", base.players[perm[i]], s)]

    def test_rejects_small_player_count(self, fig3, router_base):
        with pytest.raises(InputError):
            symmetrize(fig3, 1)
        with pytest.raises(InputError, match="base game has 2 players, expected k=3"):
            symmetrize(router_base, 3)

    def test_rejects_multi_topology_base(self, router):
        with pytest.raises(InputError):
            symmetrize(router, 2)

    def test_validates(self, router_base):
        assert validate(symmetrize(router_base, 2)) == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_games_validate(seed):
    rng = random.Random(seed)
    game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=rng.randint(1, 4),
                      n_actions=rng.randint(1, 2), n_topologies=rng.randint(1, 2))
    assert validate(game) == []
