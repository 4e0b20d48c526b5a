#!/usr/bin/env python3
"""Regenerate the expected outputs the benchmark checks against.

Run from the checkout root, only when a change of output is intended::

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import workloads as w


def write(name: str, doc) -> None:
    path = w.GOLDEN / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    games, targets = w.bundled_inputs()
    write("search.json", {name: w.search_outcome(call(games[g], targets), games[g])
                          for name, (g, call) in w.SEARCHES.items()})

    Path(w.OUT).mkdir(exist_ok=True)
    cli = []
    for argv in w.cli_commands():
        code, stdout = w.run_cli(argv)
        cli.append({"argv": argv, "exit": code, "stdout": stdout})
    write("cli-readme.json", cli)

    text = "".join(w.verdict_code(*w.verdicts(item.game, item.profile, oracle))
                   for _, item, oracle in w.corpus_pass(w.build_corpus(w.DEFAULT_SEED)))
    write(f"verify-mixed-seed{w.DEFAULT_SEED}.json",
          {"seed": w.DEFAULT_SEED, "profiles": len(text),
           "sha256": hashlib.sha256(text.encode()).hexdigest(), "verdicts": text})


if __name__ == "__main__":
    main()
