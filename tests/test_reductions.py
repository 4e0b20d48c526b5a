import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from brute import reference_cycle_sets
from mtgames import reductions
from mtgames.core import InputError, Lasso
from mtgames.oracles import _reachable_cycle_sets, gamma_sample, omega_rank_agreement
from mtgames.reductions import (START, RoundtripReport, _first_difference, build_cne_game,
                                build_gne_game, challenge_sets, gamma_roundtrip, rank_parity,
                                semantic_objective, simulate_h)
from mtgames.strategy import Profile, constant_strategy


def all_target_tuples(game):
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(game.topologies, r)
        for r in range(len(game.topologies) + 1)))
    for combo in itertools.product(subsets, repeat=len(game.players)):
        yield {p: frozenset(ts) for p, ts in zip(game.players, combo)}


@pytest.fixture(scope="module")
def router_cne(router):
    targets = {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})}
    return build_cne_game(router, targets)


@pytest.fixture(scope="module")
def router_gne(router):
    targets = {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})}
    return build_gne_game(router, targets)


class TestChallengeSets:
    def test_family_size_bound(self, router):
        for targets in all_target_tuples(router):
            _, family = challenge_sets(router, targets)
            assert len(family) <= 2 * len(router.players) * len(router.topologies)

    def test_contains_singletons_and_extensions(self, router):
        targets = {"blue": frozenset({"A"}), "red": frozenset()}
        per_player, family = challenge_sets(router, targets)
        assert frozenset({"A"}) in per_player["blue"]
        assert frozenset({"A", "B"}) in per_player["blue"]
        assert frozenset({"B"}) in per_player["blue"]
        assert frozenset({"A"}) in per_player["red"]


class TestBuildCne:
    def test_rank_cases(self, router):
        targets = {"blue": frozenset({"A"}), "red": frozenset({"A", "B"})}
        h = build_cne_game(router, targets)
        for q in h.states[1:]:
            base = router.priority[(q.t, q.p, q.s)]
            if q.t not in q.T:
                assert h.rank[q] == 1
            elif q.b and q.t in targets[q.p] and targets[q.p] < q.T:
                assert h.rank[q] == 1
            elif q.b and q.t in targets[q.p]:
                assert h.rank[q] == base
            elif targets[q.p] < q.T:
                assert h.rank[q] == base + 1
            else:
                assert h.rank[q] == 0
        assert h.rank[START] == 0

    def test_state_count_bound(self, router):
        n_s, n_p, n_t = 3, 2, 2
        for targets in all_target_tuples(router):
            h = build_cne_game(router, targets)
            _, family = challenge_sets(router, targets)
            assert len(h.states) - 1 <= 2 * n_s * n_p * len(family) * n_t

    def test_commitments_stay_fixed_and_obedience_is_monotone(self, router_cne):
        succ = router_cne.successor_sets()
        for q, targets in succ.items():
            if q == START:
                continue
            for q2 in targets:
                assert (q2.p, q2.T, q2.t) == (q.p, q.T, q.t)
                if not q.b:
                    assert not q2.b

    @pytest.mark.parametrize("kind", ["cne", "gne"])
    def test_a_start_choice_is_the_commitment_of_the_state_it_enters(self, request, kind):
        h = request.getfixturevalue(f"router_{kind}")
        starts = {c: q for (u, c), q in h.transitions.items() if u == START}
        assert h.start_choices() == sorted(starts, key=lambda c: h.ids[starts[c]])
        for c, q in starts.items():
            assert c == (q.p, q.T, q.t)
            assert (q.T is None) == (kind == "gne")

    def test_observations_project_to_game_states(self, router, router_cne):
        for role in ("coalition", "deviator"):
            classes = router_cne.observations[role]
            assert classes[0] == frozenset({START})
            for cls in classes[1:]:
                states = {q.s for q in cls}
                assert len(states) == 1
        # resolver sees everything
        assert all(len(c) == 1 for c in router_cne.observations["resolver"])

    def test_deviation_flips_obedience(self, router, router_cne):
        q = router_cne.transitions[(START, ("blue", frozenset({"A", "B"}), "A"))]
        assert q.b
        q2 = router_cne.transitions[(q, (("0", "0"), "1"))]
        assert not q2.b
        q3 = router_cne.transitions[(q, (("0", "0"), "0"))]
        assert q3.b


class TestBuildGne:
    def test_rank_cases(self, router, router_gne):
        targets = router_gne.targets
        for q in router_gne.states[1:]:
            base = router.priority[(q.t, q.p, q.s)]
            if q.t not in targets[q.p]:
                assert router_gne.rank[q] == base + 1
            elif q.b:
                assert router_gne.rank[q] == base
            else:
                assert router_gne.rank[q] == 0

    def test_rank_case_examples(self, fig3):
        targets = {"solo": frozenset({"t1"})}
        h = build_gne_game(fig3, targets)
        for q in h.states[1:]:
            if q.t == "t2" and q.s == "s1":
                # not an intended topology: complemented objective
                assert h.rank[q] == fig3.priority[("t2", "solo", "s1")] + 1
            if not q.b and q.t == "t1":
                assert h.rank[q] == 0

    def test_reachable_size_is_exactly_the_bound_here(self, router_gne):
        assert len(router_gne.states) - 1 == 2 * 3 * 2 * 2

    def test_state_count_bound_all_tuples(self, fig3):
        for targets in all_target_tuples(fig3):
            h = build_gne_game(fig3, targets)
            assert len(h.states) - 1 <= 2 * 3 * 1 * 2


class TestStateIds:
    @pytest.mark.parametrize("kind, first, second, sid", [
        ("gne", "(s='a', p='b|c', t='t', b=True)", "(s='a|b', p='c', t='t', b=True)",
         "a|b|c|t|1"),
        ("cne", "(s='s', p='p', T=['x', 'y'], t='x', b=True)",
         "(s='s', p='p', T=['x+y'], t='x', b=True)", "s|p|x+y|x|1"),
    ], ids=["gne", "cne"])
    def test_two_states_under_one_id_rejected(self, colliding, kind, first, second, sid):
        game, targets = colliding[kind]
        build = build_cne_game if kind == "cne" else build_gne_game
        with pytest.raises(InputError) as exc:
            build(game, targets)
        assert str(exc.value) == (f"states {first} and {second} of the {kind} challenge game "
                                  f"share the id {sid!r}")


class TestSemanticObjective:
    def test_resolver_outside_challenge_fails(self, router_cne):
        q = router_cne.transitions[(START, ("blue", frozenset({"A"}), "B"))]
        loop = router_cne.transitions[(q, (("0", "0"), "0"))]
        assert loop.s == "ready"
        lasso = Lasso(prefix=(START,), cycle=(q,))
        assert not semantic_objective(router_cne, lasso)
        assert not rank_parity(router_cne, lasso)

    def test_obeying_win_on_intended_topology(self, router_cne, turn_taking):
        # turn taking realizes the intended sets, so the obeying play satisfies it
        profile = turn_taking
        rho = simulate_h(router_cne, profile, profile.by_player[0],
                         ("blue", frozenset({"A"}), "A"))
        assert semantic_objective(router_cne, rho) == rank_parity(router_cne, rho)
        assert semantic_objective(router_cne, rho)

    def test_illegal_lasso_rejected(self, router_cne):
        with pytest.raises(InputError):
            semantic_objective(router_cne, Lasso(prefix=(), cycle=(START,)))
        blue = router_cne.transitions[(START, ("blue", frozenset({"A"}), "A"))]
        red = router_cne.transitions[(START, ("red", frozenset({"A"}), "A"))]
        for lasso, message in (
                (Lasso(prefix=(START,), cycle=()), "lasso cycle is empty"),
                (Lasso(prefix=(), cycle=(blue,)), "plays start at the start state"),
                (Lasso(prefix=(START,), cycle=(blue, red)), "not realizable")):
            with pytest.raises(InputError, match=message):
                semantic_objective(router_cne, lasso)

    def test_agrees_with_rank_parity_router(self, router):
        for targets in list(all_target_tuples(router))[:6]:
            for build in (build_cne_game, build_gne_game):
                res = omega_rank_agreement(build(router, targets), cycle_bound=6)
                assert res.checked > 0
                assert res.disagreements == []

    def test_omega_builds_the_successor_map_once(self, router, monkeypatch):
        items = []

        class Counted(dict):
            def items(self):
                items.append(1)
                return super().items()
        judged = []
        check = reductions.check_h_lasso

        def spy(h, lasso):
            judged.append(lasso)
            return check(h, lasso)
        monkeypatch.setattr(reductions, "check_h_lasso", spy)
        targets = {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})}
        h = build_cne_game(router, targets)
        h = dataclasses.replace(h, transitions=Counted(h.transitions))
        res = omega_rank_agreement(h)
        assert res.checked == 96 and res.disagreements == []
        assert len(items) == 1  # one pass over the transitions, not one per lasso
        assert len(judged) == res.checked  # every lasso is still checked as a legal play

    @pytest.mark.parametrize("bound", range(1, 9))
    def test_cycle_sets_equal_the_frozenset_reference_on_router(self, router_cne, router_gne,
                                                               bound):
        for h in (router_cne, router_gne):
            succ = h.successor_sets()
            name = functools.partial(reductions._h_state_id, game=h.game)
            slices: dict[tuple, list] = {}
            for q in h.states[1:]:
                slices.setdefault((q.p, q.T, q.t, q.b), []).append(q)
            found = 0
            for nodes in slices.values():
                inner = {q: [w for w in succ[q] if w in nodes] for q in nodes}
                want = reference_cycle_sets(nodes, inner, bound, name)
                assert _reachable_cycle_sets(nodes, inner, bound, name) == want
                # successors outside the slice are left out, as the reference's input leaves them
                assert _reachable_cycle_sets(nodes, succ, bound, name) == want
                found += len(want)
            assert found > 0

    def test_cycle_sets_equal_the_frozenset_reference_on_random_graphs(self):
        rng = random.Random(3)
        sizes = set()
        for _ in range(60):
            nodes = [f"q{i}" for i in rng.sample(range(20), rng.randint(1, 7))]
            succ = {q: rng.sample(nodes, rng.randint(0, len(nodes))) for q in nodes}
            for bound in range(1, 7):
                want = reference_cycle_sets(nodes, succ, bound, str)
                assert _reachable_cycle_sets(nodes, succ, bound, str) == want
                sizes.update(len(states) for states, _ in want)
        assert sizes == set(range(1, 7))

    def test_omega_records_a_disagreement(self, router_cne):
        q = router_cne.transitions[(START, ("blue", frozenset({"A"}), "B"))]
        assert router_cne.transitions[(q, (("0", "0"), "0"))] == q  # a one-state cycle
        assert router_cne.rank[q] == 1  # the resolver left the challenge set: odd
        bumped = dataclasses.replace(router_cne, rank={**router_cne.rank, q: 2})
        res = omega_rank_agreement(bumped, cycle_bound=1)
        assert {"cycle_states": [reductions._h_state_id(q, router_cne.game)],
                "semantic": False, "rank_parity": True} in res.disagreements
        assert all(d["semantic"] != d["rank_parity"] for d in res.disagreements)
        assert res.checked == omega_rank_agreement(router_cne, cycle_bound=1).checked

    def test_omega_and_start_choices_do_not_depend_on_the_hash_seed(self):
        script = ("from mtgames.io import data_path, load_game, load_targets\n"
                  "from mtgames.oracles import omega_rank_agreement\n"
                  "from mtgames.reductions import START, _h_state_id, build_cne_game\n"
                  "game = load_game(data_path('router.game'))\n"
                  "h = build_cne_game(game, load_targets(data_path('router-all.tt'), game))\n"
                  "print([_h_state_id(h.transitions[(START, c)], game)\n"
                  "       for c in h.start_choices()])\n"
                  "for q in h.states[1:]:\n"
                  "    h.rank[q] += len(q.T) == 2\n"
                  "res = omega_rank_agreement(h, 4)\n"
                  "print(len(res.disagreements), res.disagreements)\n")
        src = str(Path(reductions.__file__).resolve().parents[1])
        outs = []
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[1].startswith("32 ")


class TestGammaRoundtrip:
    def test_first_difference_of_two_plays(self):
        a, b = "a", "b"
        assert _first_difference(Lasso((a,), (b, a)), Lasso((), (a, b))) is None
        assert _first_difference(Lasso((a,), (b,)), Lasso((), (a, b))) == 2
        assert _first_difference(Lasso((), (b,)), Lasso((a,), (b,))) == 0

    @pytest.mark.parametrize("obey, deviated, suggested, ok", [
        (True, None, None, True),
        (True, None, 2, False),  # an obeying play unlike the suggested one
        (False, None, None, True),
        (False, 2, None, False),  # a deviating play unlike the deviated one
    ])
    def test_an_obeying_play_unlike_the_suggested_one_is_not_ok(self, obey, deviated,
                                                                suggested, ok):
        report = RoundtripReport(obey=obey, deviated_mismatch_index=deviated,
                                 suggested_mismatch_index=suggested)
        assert report.ok() is ok

    def test_obeying_deviator_reproduces_suggested_play(self, router_cne, turn_taking):
        report = gamma_roundtrip(router_cne, turn_taking, turn_taking.by_player[1],
                                 ("red", frozenset({"B"}), "B"))
        assert report.obey
        assert report.deviated_mismatch_index is None
        assert report.suggested_mismatch_index is None

    def test_immediate_deviation_clears_obedience(self, router, router_cne, turn_taking):
        dev = constant_strategy(router, "1")
        commitment = ("blue", frozenset({"A"}), "A")
        report = gamma_roundtrip(router_cne, turn_taking, dev, commitment)
        assert not report.obey
        assert report.deviated_mismatch_index is None
        rho = simulate_h(router_cne, turn_taking, dev, commitment)
        interior = [q for q in rho.prefix if q != START] + list(rho.cycle)
        assert not interior[1].b

    def test_sampled_correspondence_cne_and_gne(self, router_cne, router_gne):
        res = gamma_sample(router_cne, samples=60, seed=3)
        assert res.mismatches == []
        res = gamma_sample(router_gne, samples=60, seed=4)
        assert res.mismatches == []

    @pytest.mark.parametrize("kind, commitment", [
        ("gne", ("blue", None, "A")),
        ("cne", ("blue", frozenset({"A"}), "A")),
    ], ids=["gne", "cne"])
    def test_redirected_transition_is_a_mismatch(self, request, router, kind, commitment):
        h = request.getfixturevalue(f"router_{kind}")
        q = h.transitions[(START, commitment)]
        key = (q, (("0", "0"), "0"))  # everyone plays 0 in the first round
        wrong = next(w for w in h.states[1:] if w.s != h.transitions[key].s)
        broken = dataclasses.replace(h, transitions={**h.transitions, key: wrong})
        stay = constant_strategy(router, "0")
        report = gamma_roundtrip(broken, Profile((stay, stay)), stay, commitment)
        assert report.deviated_mismatch_index == 1  # the redirected first move
        if kind == "gne":
            res = gamma_sample(broken, samples=200, seed=0)
            assert res.mismatches
            assert all(m["report"].deviated_mismatch_index is not None
                       for m in res.mismatches)

    @pytest.mark.parametrize("kind, commitment", [
        ("gne", ("green", None, "A")),  # an unknown player
        ("gne", ("blue", frozenset({"A"}), "A")),  # a challenge set in a greedy instance
        ("cne", ("blue", None, "A")),  # no challenge set in a conservative instance
        ("gne", ("blue", "A")),  # a greedy commitment without its challenge field
        ("cne", ("blue", frozenset(), "A")),  # a challenge set the instance does not offer
        ("cne", ("blue", {"A"}, "A")),  # an unhashable challenge set
    ], ids=["unknown player", "gne with set", "cne without set", "2-tuple", "empty set",
            "set"])
    def test_malformed_commitments_rejected(self, request, router, turn_taking, kind,
                                            commitment):
        h = request.getfixturevalue(f"router_{kind}")
        stay = constant_strategy(router, "0")
        for call in (simulate_h, gamma_roundtrip):
            with pytest.raises(InputError, match="not an available start choice"):
                call(h, turn_taking, stay, commitment)

    def test_unknown_reduction_kind_rejected(self, router):
        with pytest.raises(InputError, match="unknown reduction kind 'ne'"):
            reductions._build(router, {p: frozenset() for p in router.players}, "ne")

    def test_gne_instance_needs_no_resolver(self, router, router_gne, turn_taking):
        report = gamma_roundtrip(router_gne, turn_taking, constant_strategy(router, "1"),
                                 ("blue", None, "B"))
        assert report.deviated_mismatch_index is None
