import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mtgames
from mtgames import cli
from mtgames import io as mio
from mtgames.core import InputError
from mtgames.equilibria import check_cne
from mtgames.generate import random_mtg, random_profile
from mtgames.io import data_path
from mtgames.reductions import PartialInfoGame, build_cne_game, build_gne_game
from mtgames.strategy import Profile, constant_strategy

import random


class TestGameFiles:
    def test_bundled_router_loads(self, router):
        text = data_path("router.game").read_text(encoding="utf-8")
        assert mio.dumps_canonical(mio.game_to_dict(router)) == text

    def test_bundled_fig3_and_xor_load(self, fig3, xor):
        for name, game in (("fig3.game", fig3), ("xor.game", xor)):
            text = data_path(name).read_text(encoding="utf-8")
            assert mio.dumps_canonical(mio.game_to_dict(game)) == text

    def test_round_trip_random_games(self, tmp_path):
        rng = random.Random(40)
        for i in range(5):
            game = random_mtg(rng, n_players=rng.randint(1, 2))
            path = tmp_path / f"g{i}.game"
            mio.save_game(game, path)
            assert mio.load_game(path) == game

    def test_loader_rejects_invalid_games(self, tmp_path, router):
        doc = mio.game_to_dict(router)
        doc["initial"] = "nowhere"
        path = tmp_path / "bad.game"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            mio.load_game(path)
        doc = mio.game_to_dict(router)
        doc["priorities"] = []
        with pytest.raises(InputError, match="^g: priorities must be a nested object$"):
            mio.parse_game(doc, where="g")

    @pytest.mark.parametrize("content", [b"{not json", b'{"players": "\xff"}'],
                             ids=["syntax", "not-utf8"])
    def test_loader_rejects_malformed_json(self, tmp_path, capsys, content):
        path = tmp_path / "junk.game"
        path.write_bytes(content)
        with pytest.raises(InputError):
            mio.load_game(path)
        assert assert_one_error_line(["validate", str(path)], capsys).startswith(
            f"error: {path}: not valid JSON: ")


class TestProfileFiles:
    def test_round_trip(self, tmp_path, router):
        rng = random.Random(41)
        profile = random_profile(rng, router, 3)
        path = tmp_path / "p.profile"
        mio.save_profile(profile, router, path)
        assert mio.load_profile(path, router) == profile

    def test_totality_enforced(self, tmp_path, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "1")))
        doc = mio.profile_to_dict(profile, router)
        doc["players"]["blue"]["act"] = doc["players"]["blue"]["act"][:-1]
        path = tmp_path / "p.profile"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            mio.load_profile(path, router)


class TestReportSerialization:
    def test_failure_report_round_trips(self, fig3):
        from mtgames.equilibria import check_gne
        profile = Profile((constant_strategy(fig3, "1"),))
        report = check_gne(fig3, profile)
        doc = mio.report_to_dict(report, fig3)
        back = mio.report_from_dict(doc, fig3)
        assert back.kind == report.kind and back.verdict == report.verdict
        assert back.wintop == report.wintop
        assert back.witness.player == report.witness.player
        assert back.witness.targets == report.witness.targets
        assert back.witness.strategy == report.witness.strategy

    def test_witness_targets_repeat_a_topology(self, fig3):
        from mtgames.equilibria import check_gne
        report = check_gne(fig3, Profile((constant_strategy(fig3, "1"),)))
        doc = mio.report_to_dict(report, fig3)
        doc["witness"]["targets"] *= 2
        with pytest.raises(InputError, match=r"^report\.witness: repeats the topology 't\d'$"):
            mio.report_from_dict(doc, fig3)

    def test_success_report_round_trips(self, router, turn_taking):
        from mtgames.equilibria import check_ne
        report = check_ne(router, "A", turn_taking)
        doc = mio.report_to_dict(report, router)
        back = mio.report_from_dict(doc, router)
        assert back.verdict and back.witness is None and back.topology == "A"

    def test_report_without_wintop_rejected(self, fig3):
        with pytest.raises(InputError, match=r"^r\.json: missing required key 'wintop'"):
            mio.report_from_dict({"kind": "gne", "verdict": True}, fig3, where="r.json")


_ROUTER = mio.load_game(data_path("router.game"))
_H = mio.h_to_dict(build_cne_game(_ROUTER, mio.load_targets(data_path("router-all.tt"), _ROUTER)))
_START_ROW = next(i for i, e in enumerate(_H["transitions"]) if e["from"] == "start")
_ROW = next(i for i, e in enumerate(_H["transitions"]) if e["from"] != "start")
_STATES, _ROWS = len(_H["states"]), len(_H["transitions"])
_OTHER = _H["states"][2]["id"]  # the target of neither row
_DELETE = object()
# each defect of router's CNE document: the path of the node it edits, the node's new
# value (appended at a list's end), and the path its one error names
_DEFECTS = {
    "dropped transitions": (("transitions", slice(-5, None)), _DELETE, f"transitions[{_ROWS - 5}]"),
    "raised rank": (("states", 5, "rank"), _H["states"][5]["rank"] + 1, "states[5].rank"),
    "emptied targets": (("targets", "blue"), [], "observations.coalition[1][0]"),
    "wrong initial": (("initial",), "nowhere", "initial"),
    "bool as int": (("states", 1, "b"), 1, "states[1].b"),
    "int as float": (("states", 0, "rank"), 0.0, "states[0].rank"),
    "state without id": (("states", 1, "id"), _DELETE, "states[1].id"),
    "transition without target": (("transitions", 0, "to"), _DELETE, "transitions[0].to"),
    "roles": (("players", 2), _DELETE, "players[2]"),
    "no start": (("states", 0), _DELETE, "states[0].T"),
    "coalition length": (("transitions", _ROW, "coalition", 1), _DELETE,
                         f"transitions[{_ROW}].coalition[1]"),
    "observation roles": (("observations", "deviator"), _DELETE, "observations.deviator"),
    "observation classes": (("observations", "coalition"), ["start"],
                            "observations.coalition[0]"),
    "repeated state id": (("states", _STATES),
                          {**_H["states"][1], "rank": _H["states"][1]["rank"] + 1},
                          f"states[{_STATES}]"),
    "one state under two ids": (("states", _STATES), {**_H["states"][1], "id": "alias"},
                                f"states[{_STATES}]"),
    "repeated start transition": (("transitions", _ROWS),
                                  {**_H["transitions"][_START_ROW], "to": _OTHER},
                                  f"transitions[{_ROWS}]"),
    "repeated interior transition": (("transitions", _ROWS),
                                     {**_H["transitions"][_ROW], "to": _OTHER},
                                     f"transitions[{_ROWS}]"),
    "unknown target state": (("transitions", _ROW, "to"), "nowhere", f"transitions[{_ROW}].to"),
    "unknown source state": (("transitions", _ROW, "from"), "nowhere",
                             f"transitions[{_ROW}].from"),
}


class TestReductionFiles:
    def test_cne_round_trip(self, tmp_path, router):
        targets = {"blue": frozenset({"A"}), "red": frozenset({"A", "B"})}
        h = build_cne_game(router, targets)
        path = tmp_path / "h.json"
        mio.save_h(h, path)
        assert mio.load_h(path) == h

    def test_gne_round_trip(self, tmp_path, fig3):
        targets = {"solo": frozenset({"t2"})}
        h = build_gne_game(fig3, targets)
        path = tmp_path / "h.json"
        mio.save_h(h, path)
        assert mio.load_h(path) == h

    @pytest.mark.parametrize("kind", ["gne", "cne"])
    def test_bundled_and_random_instances_reload_as_built(self, tmp_path, kind):
        build = build_cne_game if kind == "cne" else build_gne_game
        games = [mio.load_game(data_path(name)) for name in ("router.game", "fig3.game",
                                                             "xor.game")]
        games += [random_mtg(random.Random(seed)) for seed in range(4)]
        for i, game in enumerate(games):
            # every topology for the first player, the first alone for the others
            targets = {p: frozenset(game.topologies[:None if j == 0 else 1])
                       for j, p in enumerate(game.players)}
            h = build(game, targets)
            path = tmp_path / f"h{i}.json"
            mio.save_h(h, path)
            assert mio.load_h(path) == h

    @pytest.mark.parametrize("defect", list(_DEFECTS))
    def test_defect_names_the_path_of_the_first_difference(self, defect):
        path, value, first = _DEFECTS[defect]
        node = doc = json.loads(json.dumps(_H))
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        elif path[-1] == len(node):
            node.append(value)
        else:
            node[path[-1]] = value
        message = f"h.json.{first}: differs from the cne challenge game of its game and targets"
        with pytest.raises(InputError) as exc:
            mio.h_from_dict(doc, where="h.json")
        assert str(exc.value) == message


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCli:
    def test_validate_ok(self, capsys):
        code, doc = run_cli(["validate", str(data_path("router.game"))], capsys)
        assert code == 0
        assert doc["ok"] is True

    def test_validate_reports_defects(self, tmp_path, capsys, router):
        doc = mio.game_to_dict(router)
        del doc["priorities"]["A"]["blue"]["ready"]
        path = tmp_path / "bad.game"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 0
        assert out["ok"] is False and out["defects"]

    def test_outcome(self, capsys):
        code, doc = run_cli(["outcome", str(data_path("router.game")),
                             str(data_path("turn-taking.profile")), "--topology", "A"],
                            capsys)
        assert code == 0
        assert " | " in doc["lasso"]["pretty"]
        assert set(doc["lasso"]["cycle"]) == {"ready", "send1", "send2"}

    def test_wintop(self, capsys):
        code, doc = run_cli(["wintop", str(data_path("router.game")),
                             str(data_path("turn-taking.profile"))], capsys)
        assert code == 0
        assert doc["wintop"] == {"blue": ["A", "B"], "red": ["A", "B"]}

    def test_check_gne_golden(self, capsys):
        for kind in ("gne", "cne"):
            code, doc = run_cli(["check", kind, str(data_path("router.game")),
                                 str(data_path("turn-taking.profile"))], capsys)
            assert code == 0
            assert doc["report"]["kind"] == kind and doc["report"]["verdict"] is True
            assert doc["report"]["wintop"] == {"blue": ["A", "B"], "red": ["A", "B"]}

    def test_check_ne_needs_topology(self, capsys):
        code, _ = run_cli(["check", "ne", str(data_path("router.game")),
                           str(data_path("turn-taking.profile"))], capsys)
        assert code == 1

    def test_check_emits_arenas(self, tmp_path, capsys, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "1")))
        ppath = tmp_path / "p.profile"
        mio.save_profile(profile, router, ppath)
        out_dir = tmp_path / "arenas"
        code, doc = run_cli(["check", "gne", str(data_path("router.game")), str(ppath),
                             "--emit-arenas", str(out_dir)], capsys)
        assert code == 0
        names = sorted(d.name for d in out_dir.glob("*.arena.txt"))
        assert names == ["gne-blue-A.arena.txt", "gne-blue-B.arena.txt"]
        text = (out_dir / names[0]).read_text()
        assert "SEEKER" in text and "prio=" in text
        code, _ = run_cli(["check", "ne", str(data_path("router.game")), str(ppath),
                           "--topology", "A", "--emit-arenas", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "ne-blue-A.arena.txt").exists()
        assert not (out_dir / "ne-red-A.arena.txt").exists()

    def test_check_cne_emits_split_arenas(self, tmp_path, capsys, router):
        profile = Profile((constant_strategy(router, "1"), constant_strategy(router, "1")))
        ppath = tmp_path / "p.profile"
        mio.save_profile(profile, router, ppath)
        out_dir = tmp_path / "arenas"
        code, doc = run_cli(["check", "cne", str(data_path("router.game")), str(ppath),
                             "--emit-arenas", str(out_dir)], capsys)
        assert code == 0 and doc["report"]["verdict"] is True
        names = sorted(d.name for d in out_dir.glob("*.arena.txt"))
        assert names == ["cne-blue-A+B.arena.txt", "cne-red-A+B.arena.txt"]
        # both targets are consistent at first, and an action splits them:
        # Spoiler picks the branch at a choice node
        text = (out_dir / names[0]).read_text()
        assert " SPOILER prio=" in text and ":: C(K(ready, {A,B}, mem=['m0']), a=" in text

    def test_find_cne_on_xor(self, capsys, xor):
        code, doc = run_cli(["find", "cne", str(data_path("xor.game")), "--memory", "2"], capsys)
        assert code == 0 and doc["status"] == "found" and doc["report"]["verdict"] is True
        assert check_cne(xor, mio.profile_from_dict(doc["profile"], xor)).verdict

    def test_find_gne_exhausts_on_fig3(self, capsys):
        code, doc = run_cli(["find", "gne", str(data_path("fig3.game")),
                             "--memory", "2"], capsys)
        assert code == 0
        assert doc["status"] == "exhausted-space"

    def test_find_budget_exit_code(self, capsys):
        code, doc = run_cli(["find", "gne", str(data_path("fig3.game")),
                             "--memory", "2", "--budget", "3"], capsys)
        assert code == 2
        assert doc["status"] == "budget-exhausted"

    def test_find_target_roundtrips_profile(self, tmp_path, capsys):
        out = tmp_path / "found.profile"
        code, doc = run_cli(["find", "target", str(data_path("router.game")),
                             "--memory", "2", "--targets", str(data_path("router-all.tt")),
                             "--profile-out", str(out)], capsys)
        assert code == 0
        assert doc["status"] == "found"
        game = mio.load_game(data_path("router.game"))
        profile = mio.load_profile(out, game)
        assert mio.profile_to_dict(profile, game) == doc["profile"]

    def test_reduce_writes_reloadable_instance(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(PartialInfoGame, "successor_sets", lambda h: built.append(h))
        out = tmp_path / "h.json"
        code, doc = run_cli(["reduce", "cne", str(data_path("router.game")),
                             "--targets", str(data_path("router-all.tt")),
                             "--out", str(out)], capsys)
        assert code == 0
        h = mio.load_h(out)
        assert len(h.states) - 1 == doc["states"]
        assert not built  # reducing builds no successor map

    def test_symmetrize_matches_bundled_router(self, tmp_path, capsys, router):
        out = tmp_path / "sym.game"
        code, doc = run_cli(["symmetrize", str(data_path("router-base.game")),
                             "--out", str(out)], capsys)
        assert code == 0
        expanded = mio.load_game(out)
        assert doc["topologies"] == ["12", "21"]
        rename = {"12": "A", "21": "B"}
        for (t, s, prof), target in expanded.transition.items():
            assert router.transition[(rename[t], s, prof)] == target

    def test_oracle_omega(self, capsys):
        code, doc = run_cli(["oracle", "omega", str(data_path("router.game")),
                             "--kind", "gne", "--targets", str(data_path("router-all.tt")),
                             "--cycle-bound", "6"], capsys)
        assert code == 0
        assert doc["disagreements"] == []
        assert doc["checked"] > 0

    def test_oracle_gamma(self, capsys):
        code, doc = run_cli(["oracle", "gamma", str(data_path("router.game")),
                             "--kind", "cne", "--targets", str(data_path("router-all.tt")),
                             "--samples", "20", "--seed", "5"], capsys)
        assert code == 0
        assert doc["mismatches"] == 0

    def test_oracle_deviation(self, capsys):
        code, doc = run_cli(["oracle", "deviation", str(data_path("router.game")),
                             str(data_path("turn-taking.profile")),
                             "--deviator", "blue", "--target-set", "A,B",
                             "--memory", "2"], capsys)
        assert code == 0
        assert doc["hard_failure"] is False

    def test_machine_output_is_byte_identical(self, capsys):
        args = ["wintop", str(data_path("router.game")),
                str(data_path("turn-taking.profile"))]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(["validate", "/nonexistent/x.game"], capsys)
        assert code == 1


def assert_one_error_line(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err
    return lines[0]


class TestMalformedInput:
    def test_profile_row_missing_next(self, tmp_path, capsys):
        doc = json.loads(data_path("turn-taking.profile").read_text())
        del doc["players"]["blue"]["update"][3]["next"]
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["wintop", str(data_path("router.game")), str(path)],
                                     capsys)
        assert str(path) in line and "update row 3" in line

    def test_players_not_a_list(self, tmp_path, capsys):
        doc = json.loads(data_path("router.game").read_text())
        doc["players"] = 5
        path = tmp_path / "bad.game"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["validate", str(path)], capsys)
        assert str(path) in line and "players" in line

    @pytest.mark.parametrize("place", ["player", "topology name", "from", "to", "profile entry",
                                       "profile string", "transitions"])
    def test_game_names_must_be_strings(self, tmp_path, capsys, place):
        doc = json.loads(data_path("router.game").read_text())
        row = doc["topologies"][0]["transitions"][0]
        if place == "player":
            doc["players"][0] = ["blue"]
        elif place == "topology name":
            doc["topologies"][0]["name"] = ["A"]
        elif place in ("from", "to"):
            row[place] = [row[place]]
        elif place == "profile entry":
            row["profile"][0] = ["0"]
        elif place == "profile string":
            row["profile"] = "".join(row["profile"])  # "00" would read as ("0", "0")
        else:
            doc["topologies"][0]["transitions"] = 3
        path = tmp_path / "bad.game"
        path.write_text(json.dumps(doc))
        for args in (["validate", str(path)],
                     ["wintop", str(path), str(data_path("turn-taking.profile"))]):
            line = assert_one_error_line(args, capsys)
            assert str(path) in line and "must be" in line

    @pytest.mark.parametrize("place", ["memory entry", "row memory", "players"])
    def test_profile_names_must_be_strings(self, tmp_path, capsys, place):
        doc = json.loads(data_path("turn-taking.profile").read_text())
        blue = doc["players"]["blue"]
        if place == "memory entry":
            blue["memory"][1] = [blue["memory"][1]]
        elif place == "row memory":
            blue["act"][2]["memory"] = [blue["act"][2]["memory"]]
        else:
            doc["players"] = 3
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["wintop", str(data_path("router.game")), str(path)],
                                     capsys)
        assert str(path) in line and "must" in line

    def test_target_set_given_as_string(self, tmp_path, capsys, router):
        path = tmp_path / "bad.tt"
        path.write_text(json.dumps({"blue": "A", "red": ["A", "B"]}))
        with pytest.raises(InputError):
            mio.load_targets(path, router)
        line = assert_one_error_line(["find", "target", str(data_path("router.game")),
                                      "--targets", str(path), "--memory", "1"], capsys)
        assert str(path) in line and "'blue'" in line

    def test_target_entry_not_a_string(self, tmp_path, capsys, router):
        path = tmp_path / "bad.tt"
        path.write_text(json.dumps({"blue": [["A"]], "red": ["A"]}))
        with pytest.raises(InputError):
            mio.load_targets(path, router)
        line = assert_one_error_line(["find", "target", str(data_path("router.game")),
                                      "--targets", str(path), "--memory", "1"], capsys)
        assert str(path) in line and "'blue'" in line

    def test_target_set_repeats_a_topology(self, tmp_path, capsys, router):
        path = tmp_path / "dup.tt"
        path.write_text(json.dumps({"blue": ["A", "A", "B"], "red": []}))
        message = f"{path}: target set for 'blue': repeats the topology 'A'"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            mio.load_targets(path, router)
        line = assert_one_error_line(["find", "target", str(data_path("router.game")),
                                      "--targets", str(path), "--memory", "1"], capsys)
        assert line == f"error: {message}"

    def test_oracle_deviation_memory_zero(self, capsys):
        line = assert_one_error_line(["oracle", "deviation", str(data_path("router.game")),
                                      str(data_path("turn-taking.profile")),
                                      "--deviator", "blue", "--target-set", "A",
                                      "--memory", "0"], capsys)
        assert line == "error: memory bound must be >= 1, got 0"

    @pytest.mark.parametrize("flags, name", [
        (["--deviator", "blue", "--target-set", "A,Z"], "'Z'"),
        (["--deviator", "nobody", "--target-set", "A"], "'nobody'"),
    ])
    def test_oracle_deviation_unknown_identifier(self, capsys, flags, name):
        line = assert_one_error_line(["oracle", "deviation", str(data_path("router.game")),
                                      str(data_path("turn-taking.profile")), *flags], capsys)
        assert name in line

    def test_oracle_deviation_target_set_repeats_a_topology(self, capsys):
        line = assert_one_error_line(["oracle", "deviation", str(data_path("router.game")),
                                      str(data_path("turn-taking.profile")),
                                      "--deviator", "blue", "--target-set", "A,A"], capsys)
        assert line == "error: --target-set: repeats the topology 'A'"

    def test_strategy_error_names_file_and_player(self, tmp_path, capsys):
        doc = json.loads(data_path("turn-taking.profile").read_text())
        doc["players"]["blue"]["update"][0]["next"] = "m9"
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["wintop", str(data_path("router.game")), str(path)],
                                     capsys)
        assert line == f"error: {path}.blue: update target 'm9' not a memory state"

    @pytest.mark.parametrize("kind", ["cne", "gne"])
    def test_games_past_the_64_bit_limits(self, tmp_path, capsys, kind):
        many_topologies = random_mtg(random.Random(5), n_players=2, n_states=2, n_actions=2,
                                     n_topologies=80, max_priority=3)
        many_states = random_mtg(random.Random(0), n_players=2, n_states=70, n_actions=2,
                                 n_topologies=2)
        for game, message in (
                (many_topologies, "error: the game has 80 topologies; searches and the "
                                  "deviation oracle handle at most 63"),
                (many_states, "error: strategies with memory 1 over 70 states and 2 actions "
                              "are too many to index in 64 bits")):
            path = tmp_path / "big.game"
            mio.save_game(game, path)
            line = assert_one_error_line(["find", kind, str(path), "--memory", "1",
                                          "--budget", "10"], capsys)
            assert line == message

    def test_oracle_deviation_past_63_topologies(self, tmp_path, capsys):
        game = random_mtg(random.Random(5), n_players=2, n_states=2, n_actions=2,
                          n_topologies=80, max_priority=3)
        gpath, ppath = tmp_path / "big.game", tmp_path / "p.profile"
        mio.save_game(game, gpath)
        mio.save_profile(random_profile(random.Random(1), game, 1), game, ppath)
        line = assert_one_error_line(["oracle", "deviation", str(gpath), str(ppath),
                                      "--deviator", "p0", "--target-set", "t70"], capsys)
        assert "80 topologies" in line

    def test_profile_out_failure_prints_no_result(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.profile"
        line = assert_one_error_line(["find", "gne", str(data_path("router.game")),
                                      "--memory", "1", "--profile-out", str(out)], capsys)
        assert str(out) in line

    def test_find_target_needs_targets(self, capsys):
        line = assert_one_error_line(["find", "target", str(data_path("router.game")),
                                      "--memory", "1"], capsys)
        assert line == "error: find target needs --targets"

    def test_output_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.game"
        line = assert_one_error_line(["symmetrize", str(data_path("router-base.game")),
                                      "--out", str(out)], capsys)
        assert str(out) in line

    def test_emit_arenas_onto_existing_file(self, tmp_path, capsys):
        existing = tmp_path / "router.game"
        existing.write_text("{}")
        line = assert_one_error_line(["check", "gne", str(data_path("router.game")),
                                      str(data_path("turn-taking.profile")),
                                      "--emit-arenas", str(existing)], capsys)
        assert str(existing) in line

    def test_repeated_transition_row(self, tmp_path, capsys):
        doc = json.loads(data_path("router.game").read_text())
        rows = doc["topologies"][0]["transitions"]
        row = rows[0]
        rows.append({**row, "to": next(s for s in doc["states"] if s != row["to"])})
        path = tmp_path / "bad.game"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["validate", str(path)], capsys)
        assert line == (f"error: {path}.topologies[A] transition row: second row for "
                        f"({row['from']}, {', '.join(row['profile'])})")

    @pytest.mark.parametrize("table, field, other", [("act", "action", "0"),
                                                      ("update", "next", "m2")])
    def test_repeated_strategy_row(self, tmp_path, capsys, table, field, other):
        doc = json.loads(data_path("turn-taking.profile").read_text())
        rows = doc["players"]["red"][table]
        assert rows[0][field] != other  # read as the last one wins, the row would change red
        rows.append({**rows[0], field: other})
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["wintop", str(data_path("router.game")), str(path)],
                                     capsys)
        cell = (rows[0]["memory"], rows[0]["state"])
        assert line == f"error: {path}.red: {table} row {len(rows) - 1} repeats the row for {cell}"

    @pytest.mark.parametrize("table", ["act", "update"])
    def test_row_outside_memory_and_states(self, tmp_path, capsys, table):
        doc = json.loads(data_path("turn-taking.profile").read_text())
        rows = doc["players"]["blue"][table]
        rows.append({**rows[0], "memory": "nosuch"})
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["wintop", str(data_path("router.game")), str(path)],
                                     capsys)
        cell = ("nosuch", rows[0]["state"])
        assert line == f"error: {path}.blue: {table} table row {cell} outside memory x states"

    def test_duplicate_key_in_a_targets_file(self, tmp_path, capsys):
        path = tmp_path / "dup.tt"
        path.write_text('{"blue": ["A"], "blue": ["A", "B"], "red": ["A", "B"]}')
        line = assert_one_error_line(["find", "target", str(data_path("router.game")),
                                      "--targets", str(path), "--memory", "1"], capsys)
        assert line == f"error: {path}: duplicate key 'blue' in one object"

    def test_duplicate_key_deep_in_a_game(self, tmp_path, capsys):
        text = data_path("router.game").read_text()
        path = tmp_path / "dup.game"
        path.write_text(text.replace('"from": ', '"to": "ready", "from": ', 1))
        line = assert_one_error_line(["validate", str(path)], capsys)
        assert line == f"error: {path}: duplicate key 'to' in one object"

    @pytest.mark.parametrize("args, message", [
        (["oracle", "gamma", "router.game", "--kind", "gne", "--targets", "router-all.tt",
          "--samples", "-1"], "samples must be >= 1, got -1"),
        (["oracle", "gamma", "router.game", "--kind", "gne", "--targets", "router-all.tt",
          "--memory", "0"], "memory bound must be >= 1, got 0"),
        (["oracle", "omega", "router.game", "--kind", "gne", "--targets", "router-all.tt",
          "--cycle-bound", "-1"], "cycle bound must be >= 1, got -1"),
    ], ids=["gamma-samples", "gamma-memory", "omega-cycle-bound"])
    def test_non_positive_counts(self, capsys, args, message):
        args = [str(data_path(a)) if a.endswith((".game", ".tt")) else a for a in args]
        assert assert_one_error_line(args, capsys) == f"error: {message}"

    @pytest.mark.parametrize("command", [["reduce", "gne"], ["oracle", "omega"],
                                         ["oracle", "gamma"]], ids=" ".join)
    def test_two_states_under_one_id(self, tmp_path, capsys, colliding, command):
        game, targets = colliding["gne"]
        path, tt, out = tmp_path / "g.game", tmp_path / "g.tt", tmp_path / "h.json"
        mio.save_game(game, path)
        tt.write_text(json.dumps(mio.targets_to_dict(targets, game)))
        args = [*command, str(path), "--targets", str(tt)]
        args += ["--out", str(out)] if command[0] == "reduce" else ["--kind", "gne"]
        line = assert_one_error_line(args, capsys)
        assert line.startswith("error: states (s='a', p='b|c', t='t', b=True) and ")
        assert line.endswith(" of the gne challenge game share the id 'a|b|c|t|1'")
        assert not out.exists()

    def test_jobs_is_not_an_option(self):
        out, err, code = parse_outcome(cli.main, ["find", "gne", str(data_path("xor.game")),
                                                  "--memory", "1", "--jobs", "2"])
        assert (out, code) == ("", 1)
        assert err.startswith("usage: mtgames ")
        assert err.endswith("error: unrecognized arguments: --jobs 2\n")

    @pytest.mark.parametrize("args, message", [
        (["check", "gne", "router.game", "turn-taking.profile", "--topology", "Nope"],
         "--topology applies only to check ne"),
        (["check", "cne", "router.game", "turn-taking.profile", "--topology", "A"],
         "--topology applies only to check ne"),
        (["find", "gne", "router.game", "--memory", "1", "--targets", "/nonexistent"],
         "--targets applies only to find target"),
        (["find", "cne", "router.game", "--memory", "1", "--targets", "router-all.tt"],
         "--targets applies only to find target"),
    ], ids=["check-gne-topology", "check-cne-topology", "find-gne-targets", "find-cne-targets"])
    def test_option_of_another_command(self, capsys, args, message):
        args = [str(data_path(a)) if a.endswith((".game", ".tt", ".profile")) else a
                for a in args]
        assert assert_one_error_line(args, capsys) == f"error: {message}"


def parse_outcome(call, argv):
    """(stdout, stderr, exit code) of ``call(argv)``, which ends in argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            call(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


class TestParser:
    XOR = "xor.game"  # not a path: each case ends in parsing or in a failed load

    @pytest.mark.parametrize("argv", [
        *([command, "-h"] for command in cli.COMMANDS),
        *(["oracle", kind, "-h"] for kind in ("omega", "gamma", "deviation")),
        ["find", "gne", XOR], ["outcome", XOR, "p"], ["find"], ["oracle"],
        ["oracle", "omega", XOR],
        ["find", "gne", XOR, "--memory", "1", "extra"], ["validate", XOR, "extra"],
        ["oracle", "omega", XOR, "--kind", "gne", "--targets", "t", "--extra"],
        ["check", "xx", XOR, "p"], ["find", "gne", XOR, "--memory", "one"],
        ["bogus"], ["bogus", "find"], ["-x"], [], ["-h"], ["--help"], ["-h", "find"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_text_and_exit_code_as_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        want = parse_outcome(cli.build_parser().parse_args, argv)
        assert want[2] in (0, 1) and want[0] + want[1]
        assert parse_outcome(cli.main, argv) == want

    @pytest.mark.parametrize("argv, built", [
        (["validate", XOR], ["validate"]),
        (["find", "gne", XOR, "--memory", "1"], ["find"]),
        (["oracle", "omega", XOR, "--kind", "gne", "--targets", "t"],
         ["oracle", "omega", "gamma", "deviation"]),
        (["bogus"], [*cli.COMMANDS, "omega", "gamma", "deviation"]),
    ])
    def test_a_call_builds_only_its_command_parser(self, argv, built, monkeypatch, capsys):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        capsys.readouterr()
        assert sorted(names) == sorted(built)

    def test_no_argv_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["mtgames", "validate", str(data_path("xor.game"))])
        code, doc = run_cli(None, capsys)
        assert code == 0 and doc == {"command": "validate", "defects": [], "ok": True}
        monkeypatch.setattr(sys, "argv", ["mtgames", "bogus"])
        _, err, code = parse_outcome(cli.main, None)
        assert code == 1 and "invalid choice: 'bogus'" in err


def test_mtgames_environment_variables_are_ignored():
    """Leftover ``MTGAMES_*`` settings change neither the exit code nor stdout."""
    src = str(Path(mtgames.__file__).resolve().parents[1])
    clean = {k: v for k, v in os.environ.items() if not k.startswith("MTGAMES_")}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [src, clean.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "mtgames.cli", "find", "gne",
           str(data_path("fig3.game")), "--memory", "1"]
    runs = [subprocess.run(cmd, env=env, capture_output=True, timeout=120)
            for env in (clean, {**clean, "MTGAMES_KERNEL": "bogus", "MTGAMES_JOBS": "bogus"})]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
        assert b"Traceback" not in run.stderr
    assert runs[0].stdout and runs[1].stdout == runs[0].stdout
