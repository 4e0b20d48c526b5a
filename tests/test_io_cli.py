import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtgames
from mtgames import cli
from mtgames import io as mio
from mtgames.core import InputError
from mtgames.generate import random_mtg, random_profile
from mtgames.io import data_path
from mtgames.reductions import build_cne_game, build_gne_game
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

    def test_loader_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "junk.game"
        path.write_text("{not json")
        with pytest.raises(InputError):
            mio.load_game(path)


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

    def test_success_report_round_trips(self, router, turn_taking):
        from mtgames.equilibria import check_ne
        report = check_ne(router, "A", turn_taking)
        doc = mio.report_to_dict(report, router)
        back = mio.report_from_dict(doc, router)
        assert back.verdict and back.witness is None and back.topology == "A"


class TestReductionFiles:
    def test_cne_round_trip(self, tmp_path, router):
        targets = {"blue": frozenset({"A"}), "red": frozenset({"A", "B"})}
        h = build_cne_game(router, targets)
        path = tmp_path / "h.json"
        mio.save_h(h, path)
        h2 = mio.load_h(path)
        assert h2.kind == h.kind
        assert set(h2.states) == set(h.states)
        assert h2.transitions == h.transitions
        assert h2.rank == h.rank
        assert h2.observations == h.observations
        assert h2.targets == h.targets

    def test_gne_round_trip(self, tmp_path, fig3):
        targets = {"solo": frozenset({"t2"})}
        h = build_gne_game(fig3, targets)
        path = tmp_path / "h.json"
        mio.save_h(h, path)
        h2 = mio.load_h(path)
        assert h2.transitions == h.transitions
        assert h2.rank == h.rank


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
        code, doc = run_cli(["check", "gne", str(data_path("router.game")),
                             str(data_path("turn-taking.profile"))], capsys)
        assert code == 0
        assert doc["report"]["verdict"] is True
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

    @pytest.mark.parametrize("args", [["gne", "fig3.game"], ["cne", "xor.game"]],
                             ids=["gne-fig3", "cne-xor"])
    def test_find_stdout_independent_of_jobs(self, capsys, args):
        kind, game = args
        outs = []
        for jobs in ("1", "2"):
            cli.main(["find", kind, str(data_path(game)), "--memory", "2", "--jobs", jobs])
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1]

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

    def test_reduce_writes_reloadable_instance(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        code, doc = run_cli(["reduce", "cne", str(data_path("router.game")),
                             "--targets", str(data_path("router-all.tt")),
                             "--out", str(out)], capsys)
        assert code == 0
        h = mio.load_h(out)
        assert len(h.states) - 1 == doc["states"]

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

    def test_strategy_error_names_file_and_player(self, tmp_path, capsys):
        doc = json.loads(data_path("turn-taking.profile").read_text())
        doc["players"]["blue"]["update"][0]["next"] = "m9"
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(doc))
        line = assert_one_error_line(["wintop", str(data_path("router.game")), str(path)],
                                     capsys)
        assert line == f"error: {path}.blue: update target 'm9' not a memory state"

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

    @pytest.mark.parametrize("args, message", [
        (["find", "gne", "fig3.game", "--memory", "1", "--jobs", "0"],
         "jobs must be >= 1, got 0"),
        (["find", "gne", "fig3.game", "--memory", "1", "--jobs", "-3"],
         "jobs must be >= 1, got -3"),
        (["oracle", "gamma", "router.game", "--kind", "gne", "--targets", "router-all.tt",
          "--samples", "-1"], "samples must be >= 1, got -1"),
        (["oracle", "gamma", "router.game", "--kind", "gne", "--targets", "router-all.tt",
          "--memory", "0"], "memory bound must be >= 1, got 0"),
        (["oracle", "omega", "router.game", "--kind", "gne", "--targets", "router-all.tt",
          "--cycle-bound", "-1"], "cycle bound must be >= 1, got -1"),
    ], ids=["jobs-zero", "jobs-negative", "gamma-samples", "gamma-memory", "omega-cycle-bound"])
    def test_non_positive_counts(self, capsys, args, message):
        args = [str(data_path(a)) if a.endswith((".game", ".tt")) else a for a in args]
        assert assert_one_error_line(args, capsys) == f"error: {message}"


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
