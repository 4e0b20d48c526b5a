"""Command-line front end.

Machine-readable JSON goes to stdout (the contract: identical invocations
produce byte-identical documents); a short human summary goes to stderr.
Exit codes: 0 analysis completed (the verdict is in the output), 1 input
error, 2 search budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as mio
from .core import InputError, symmetrize, validate
from .equilibria import (check_cne, check_gne, check_ne, deviation_arena,
                         deviation_questions)
from .oracles import compare_deviation_checker, gamma_sample, omega_rank_agreement
from .reductions import build_cne_game, build_gne_game
from .search import SearchResult, find_cne, find_gne, find_profile_with_wintop
from .strategy import outcome, wintop_map

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


def _emit(doc: dict) -> None:
    sys.stdout.write(mio.dumps_canonical(doc))


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _search_result_doc(result: SearchResult, game) -> dict:
    doc = {"status": result.status, "examined": result.examined,
           "memory_bound": result.memory_bound}
    if result.note:
        doc["note"] = result.note
    if result.profile is not None:
        doc["profile"] = mio.profile_to_dict(result.profile, game)
    if result.report is not None:
        doc["report"] = mio.report_to_dict(result.report, game)
    return doc


def _emit_check_arenas(report, game, profile, out_dir: str) -> None:
    """Write the arena each deviation question of the check is decided on, for failure triage."""
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create arena directory {out_dir}: {exc}") from exc
    for p, targets in deviation_questions(game, report.kind, report.wintop, report.topology):
        arena = deviation_arena(game, profile, p, targets)
        name = f"{report.kind}-{p}-" + "+".join(sorted(targets)) + ".arena.txt"
        mio.write_text(directory / name, arena.dump() + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtgames",
        description="Analysis workbench for multi-topology concurrent parity games")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file against the data-model invariants")
    p.add_argument("game")

    p = sub.add_parser("outcome", help="print the lasso a profile produces in one topology")
    p.add_argument("game")
    p.add_argument("profile")
    p.add_argument("--topology", required=True)

    p = sub.add_parser("wintop", help="winning topologies of every player under a profile")
    p.add_argument("game")
    p.add_argument("profile")

    p = sub.add_parser("check", help="verify an equilibrium property of a profile")
    p.add_argument("kind", choices=["ne", "cne", "gne"])
    p.add_argument("game")
    p.add_argument("profile")
    p.add_argument("--topology", help="required for ne")
    p.add_argument("--emit-arenas", metavar="DIR",
                   help="also dump the deviation arenas the check consults")

    p = sub.add_parser("find", help="bounded-memory existence search")
    p.add_argument("kind", choices=["cne", "gne", "target"])
    p.add_argument("game")
    p.add_argument("--memory", type=int, required=True)
    p.add_argument("--targets", help="target file, required for kind=target")
    p.add_argument("--budget", type=int, default=None,
                   help="abort after examining this many candidate profiles")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--profile-out", help="also write a found profile to this file")

    p = sub.add_parser("reduce", help="build a partial-information challenge game")
    p.add_argument("kind", choices=["cne", "gne"])
    p.add_argument("game")
    p.add_argument("--targets", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("symmetrize", help="expand a 1-topology game over player permutations")
    p.add_argument("game")
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="run a brute-force cross-check")
    orc = p.add_subparsers(dest="oracle", required=True)

    o = orc.add_parser("omega", help="rank parity vs semantic objective on short lassos")
    o.add_argument("game")
    o.add_argument("--kind", choices=["cne", "gne"], required=True)
    o.add_argument("--targets", required=True)
    o.add_argument("--cycle-bound", type=int, default=8)

    o = orc.add_parser("gamma", help="sampled play-correspondence check")
    o.add_argument("game")
    o.add_argument("--kind", choices=["cne", "gne"], required=True)
    o.add_argument("--targets", required=True)
    o.add_argument("--samples", type=int, default=100)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--memory", type=int, default=2)

    o = orc.add_parser("deviation", help="bounded exhaustive deviation scan vs exact checker")
    o.add_argument("game")
    o.add_argument("profile")
    o.add_argument("--deviator", required=True)
    o.add_argument("--target-set", required=True,
                   help="comma-separated topology names")
    o.add_argument("--memory", type=int, default=2)

    return parser


def _run(args) -> int:
    if args.command == "validate":
        game_doc = mio.load_json(args.game)
        try:
            game = mio.game_from_dict(game_doc, where=args.game)
            defects: list[str] = []
        except InputError as exc:
            text = str(exc)
            if "invalid game" not in text:
                raise
            defects = [line.strip() for line in text.splitlines()[1:]]
        _emit({"command": "validate", "defects": defects, "ok": not defects})
        _info("ok" if not defects else f"{len(defects)} defect(s)")
        return EXIT_OK

    game = mio.load_game(args.game)

    if args.command == "outcome":
        profile = mio.load_profile(args.profile, game)
        lasso = outcome(game, args.topology, profile)
        _emit({"command": "outcome", "lasso": mio.lasso_to_dict(lasso)})
        _info(lasso.pretty())
        return EXIT_OK

    if args.command == "wintop":
        profile = mio.load_profile(args.profile, game)
        wt = wintop_map(game, profile)
        doc = {p: [t for t in game.topologies if t in wt[p]] for p in game.players}
        _emit({"command": "wintop", "wintop": doc})
        for p, ts in doc.items():
            _info(f"{p}: {{{', '.join(ts)}}}")
        return EXIT_OK

    if args.command == "check":
        profile = mio.load_profile(args.profile, game)
        if args.kind == "ne":
            if not args.topology:
                raise InputError("check ne needs --topology")
            report = check_ne(game, args.topology, profile)
        elif args.kind == "gne":
            report = check_gne(game, profile)
        else:
            report = check_cne(game, profile)
        if args.emit_arenas:
            _emit_check_arenas(report, game, profile, args.emit_arenas)
        _emit({"command": "check", "report": mio.report_to_dict(report, game)})
        _info(f"{args.kind} verdict: {report.verdict}")
        return EXIT_OK

    if args.command == "find":
        if args.kind == "gne":
            result = find_gne(game, args.memory, budget=args.budget, jobs=args.jobs)
        elif args.kind == "cne":
            result = find_cne(game, args.memory, budget=args.budget, jobs=args.jobs)
        else:
            if not args.targets:
                raise InputError("find target needs --targets")
            targets = mio.load_targets(args.targets, game)
            result = find_profile_with_wintop(game, targets, args.memory,
                                              budget=args.budget, jobs=args.jobs)
        _emit({"command": "find", "kind": args.kind,
               **_search_result_doc(result, game)})
        _info(f"find {args.kind}: {result.status} after {result.examined} candidates")
        if result.profile is not None and args.profile_out:
            mio.save_profile(result.profile, game, args.profile_out)
        return EXIT_BUDGET if result.status == "budget-exhausted" else EXIT_OK

    if args.command == "reduce":
        targets = mio.load_targets(args.targets, game)
        h = build_cne_game(game, targets) if args.kind == "cne" else build_gne_game(game, targets)
        mio.save_h(h, args.out)
        _emit({"command": "reduce", "kind": args.kind, "out": args.out,
               "states": len(h.states) - 1})
        _info(f"wrote {args.out} ({len(h.states) - 1} interior states)")
        return EXIT_OK

    if args.command == "symmetrize":
        expanded = symmetrize(game, len(game.players))
        mio.save_game(expanded, args.out)
        _emit({"command": "symmetrize", "out": args.out,
               "topologies": list(expanded.topologies)})
        _info(f"wrote {args.out} ({len(expanded.topologies)} topologies)")
        return EXIT_OK

    if args.command == "oracle":
        if args.oracle == "omega":
            targets = mio.load_targets(args.targets, game)
            h = build_cne_game(game, targets) if args.kind == "cne" else build_gne_game(game, targets)
            res = omega_rank_agreement(h, cycle_bound=args.cycle_bound)
            _emit({"command": "oracle-omega", "checked": res.checked,
                   "disagreements": res.disagreements})
            _info(f"checked {res.checked} cycle sets, {len(res.disagreements)} disagreement(s)")
            return EXIT_OK
        if args.oracle == "gamma":
            targets = mio.load_targets(args.targets, game)
            h = build_cne_game(game, targets) if args.kind == "cne" else build_gne_game(game, targets)
            res = gamma_sample(game, h, samples=args.samples, seed=args.seed,
                               memory=args.memory)
            _emit({"command": "oracle-gamma", "samples": res.samples,
                   "mismatches": len(res.mismatches)})
            _info(f"{res.samples} samples, {len(res.mismatches)} mismatch(es)")
            return EXIT_OK
        profile = mio.load_profile(args.profile, game)
        targets = frozenset(args.target_set.split(","))
        cmp = compare_deviation_checker(game, profile, args.deviator, targets,
                                        memory_bound=args.memory)
        _emit({"command": "oracle-deviation", "checker": cmp.checker,
               "brute_force": cmp.brute, "hard_failure": cmp.hard_failure,
               "witness_ok": cmp.witness_ok})
        _info(f"checker={cmp.checker} brute={cmp.brute} hard_failure={cmp.hard_failure}")
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
