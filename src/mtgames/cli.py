"""Command-line front end.

Machine-readable JSON goes to stdout (the contract: identical invocations
produce byte-identical documents); a short human summary goes to stderr.
Exit codes: 0 analysis completed (the verdict is in the output), 1 input
error (a usage error too), 2 search budget exhausted.

A call builds only its command's parser (all when the first argument names
none): building every subparser cost more than most short commands do. For
the same reason only ``find`` and ``oracle`` import the modules that load numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as mio
from .core import InputError, symmetrize, validate
from .equilibria import (build_knowledge_arena, check_cne, check_gne, check_ne,
                         deviation_questions)
from .reductions import build_cne_game, build_gne_game
from .strategy import outcome, wintop_map

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
COMMANDS = ("validate", "outcome", "wintop", "check", "find", "reduce", "symmetrize", "oracle")


def _emit(doc: dict) -> None:
    sys.stdout.write(mio.dumps_canonical(doc))


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_check_arenas(report, game, profile, out_dir: str) -> None:
    """Write the arena each deviation question of the check is decided on, for failure triage."""
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create arena directory {out_dir}: {exc}") from exc
    for p, targets in deviation_questions(game, report.kind, report.wintop, report.topology):
        arena = build_knowledge_arena(game, profile, p, targets)
        name = f"{report.kind}-{p}-" + "+".join(sorted(targets)) + ".arena.txt"
        mio.write_text(directory / name, arena.dump() + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors exit 1: exit 2 means a spent search budget."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with only ``command``'s subparser when it names a command."""
    parser = _Parser(  # its subparsers are of its class
        prog="mtgames",
        description="Analysis workbench for multi-topology concurrent parity games")
    only = command if command in COMMANDS else None
    # a one-command parser's usage still lists every command, as the full one's does
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=only and "{" + ",".join(COMMANDS) + "}")

    def add(name: str, help: str) -> argparse.ArgumentParser | None:
        if only in (None, name):
            return sub.add_parser(name, help=help)

    if p := add("validate", "check a game file against the data-model invariants"):
        p.add_argument("game")

    if p := add("outcome", "print the lasso a profile produces in one topology"):
        p.add_argument("game")
        p.add_argument("profile")
        p.add_argument("--topology", required=True)

    if p := add("wintop", "winning topologies of every player under a profile"):
        p.add_argument("game")
        p.add_argument("profile")

    if p := add("check", "verify an equilibrium property of a profile"):
        p.add_argument("kind", choices=["ne", "cne", "gne"])
        p.add_argument("game")
        p.add_argument("profile")
        p.add_argument("--topology", help="required for ne")
        p.add_argument("--emit-arenas", metavar="DIR",
                       help="also dump the deviation arenas the check consults")

    if p := add("find", "bounded-memory existence search"):
        p.add_argument("kind", choices=["cne", "gne", "target"])
        p.add_argument("game")
        p.add_argument("--memory", type=int, required=True)
        p.add_argument("--targets", help="target file, required for kind=target")
        p.add_argument("--budget", type=int, default=None,
                       help="abort after examining this many candidate profiles")
        p.add_argument("--profile-out", help="also write a found profile to this file")

    if p := add("reduce", "build a partial-information challenge game"):
        p.add_argument("kind", choices=["cne", "gne"])
        p.add_argument("game")
        p.add_argument("--targets", required=True)
        p.add_argument("--out", required=True)

    if p := add("symmetrize", "expand a 1-topology game over player permutations"):
        p.add_argument("game")
        p.add_argument("--out", required=True)

    if p := add("oracle", "run a brute-force cross-check"):
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

        o = orc.add_parser("deviation", help="bounded deviation scan vs exact checker")
        o.add_argument("game")
        o.add_argument("profile")
        o.add_argument("--deviator", required=True)
        o.add_argument("--target-set", required=True,
                       help="comma-separated topology names")
        o.add_argument("--memory", type=int, default=2)

    return parser


def _run(args) -> int:
    # an option the command does not read would otherwise be ignored silently
    if args.command == "check" and args.kind != "ne" and args.topology is not None:
        raise InputError("--topology applies only to check ne")
    if args.command == "find" and args.kind != "target" and args.targets is not None:
        raise InputError("--targets applies only to find target")
    if args.command == "validate":
        defects = validate(mio.parse_game(mio.load_json(args.game), where=args.game))
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
        doc = mio.targets_to_dict(wintop_map(game, profile), game)
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
        from .search import find_cne, find_gne, find_profile_with_wintop
        if args.kind == "gne":
            result = find_gne(game, args.memory, budget=args.budget)
        elif args.kind == "cne":
            result = find_cne(game, args.memory, budget=args.budget)
        else:
            if not args.targets:
                raise InputError("find target needs --targets")
            targets = mio.load_targets(args.targets, game)
            result = find_profile_with_wintop(game, targets, args.memory, budget=args.budget)
        if result.profile is not None and args.profile_out:
            mio.save_profile(result.profile, game, args.profile_out)
        doc = {"command": "find", "kind": args.kind, "status": result.status,
               "examined": result.examined, "memory_bound": result.memory_bound}
        if result.note:
            doc["note"] = result.note
        if result.profile is not None:
            doc["profile"] = mio.profile_to_dict(result.profile, game)
        if result.report is not None:
            doc["report"] = mio.report_to_dict(result.report, game)
        _emit(doc)
        _info(f"find {args.kind}: {result.status} after {result.examined} candidates")
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
        from .oracles import compare_deviation_checker, gamma_sample, omega_rank_agreement
        if args.oracle == "deviation":
            profile = mio.load_profile(args.profile, game)
            targets = mio._members(args.target_set.split(","), game.topologies, "topology",
                                   "--target-set")
            cmp = compare_deviation_checker(game, profile, args.deviator, targets,
                                            memory_bound=args.memory)
            _emit({"command": "oracle-deviation", "checker": cmp.checker,
                   "brute_force": cmp.brute, "hard_failure": cmp.hard_failure,
                   "witness_ok": cmp.witness_ok})
            _info(f"checker={cmp.checker} brute={cmp.brute} hard_failure={cmp.hard_failure}")
            return EXIT_OK
        targets = mio.load_targets(args.targets, game)
        h = build_cne_game(game, targets) if args.kind == "cne" else build_gne_game(game, targets)
        if args.oracle == "omega":
            res = omega_rank_agreement(h, cycle_bound=args.cycle_bound)
            _emit({"command": "oracle-omega", "checked": res.checked,
                   "disagreements": res.disagreements})
            _info(f"checked {res.checked} cycle sets, {len(res.disagreements)} disagreement(s)")
            return EXIT_OK
        res = gamma_sample(h, samples=args.samples, seed=args.seed, memory=args.memory)
        _emit({"command": "oracle-gamma", "samples": res.samples,
               "mismatches": len(res.mismatches)})
        _info(f"{res.samples} samples, {len(res.mismatches)} mismatch(es)")
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
