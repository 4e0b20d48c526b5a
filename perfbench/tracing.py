"""In-memory span tracer that wraps mtgames' public functions from outside.

Each wrapped function is replaced in every ``mtgames`` module that binds it,
so the wrapper runs wherever a caller looks the function up (``search`` calls
``_kernels.simulate_min_even`` through the module, ``equilibria`` calls its
own imported ``solve_conjunction``, and so on). Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` restores every binding.

A span is (name, start, end, parent, op id). Spans are kept in memory and
written out once, when the run ends. Layer metrics are computed from the
spans plus a few counters that hooks read off call arguments and results.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.outermost: list[bool] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, hook=None):
        if not self.active:
            return fn(*args, **kwargs)
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outermost.append(self._depth[name] == 0)
        self.end.append(0.0)
        self._stack.append(i)
        self._depth[name] += 1
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._depth[name] -= 1
            self._stack.pop()
        if hook is not None:
            hook(self, i, args, kwargs, result)
        return result

    def parent_name(self, i: int) -> str | None:
        p = self.parent[i]
        return self.names[p] if p >= 0 else None

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    # -- installing wrappers ----------------------------------------------

    def wrap_function(self, fn, name: str, hook=None) -> None:
        """Replace ``fn`` in every loaded mtgames module that binds it."""
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("mtgames"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        fn = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, wrapper)

    def wrap_generator_method(self, cls, attr: str, name: str) -> None:
        """Time a generator method per ``next()``, each step its own span."""
        fn = getattr(cls, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (it,), {})
                except StopIteration:
                    return
                yield item
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def save(self, path: Path) -> None:
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, names=np.array(table),
                name_id=np.array([ids[n] for n in self.names], dtype=np.int16),
                start=np.array(self.start), end=np.array(self.end),
                parent=np.array(self.parent, dtype=np.int64),
                op=np.array(self.op, dtype=np.int64))

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost spans, self seconds."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            st = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            if self.outermost[i]:
                st["incl_s"] += dur
        return out


# ---------------------------------------------------------------------------
# hooks: counters read off arguments and results


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _install_kernel_wrappers(tr: Tracer, kernels) -> None:
    bind_sweep = _bound(kernels.sweep_block)
    bind_sim = _bound(kernels.simulate_min_even)
    bind_canon = _bound(kernels.canonical_mask)

    def sweep_hook(tr, i, args, kwargs, result):
        a = bind_sweep(args, kwargs)
        keep, _ = result
        n_top, _, n_states = a["prio"].shape
        window = n_states * a["m_var"]
        for p, tabs in enumerate(a["fixed_tables"]):
            if p != a["var_player"]:
                window *= tabs[0].shape[1]
        kept = int(np.count_nonzero(keep))
        tr.add("sweep_candidates", a["hi"] - a["lo"])
        tr.add("sweep_steps", kept * n_top * 2 * window)

    def sim_hook(tr, i, args, kwargs, result):
        a = bind_sim(args, kwargs)
        tables = a["tables"]
        rows = max(u.shape[0] for u, _ in tables)
        window = a["delta"].shape[1]
        for u, _ in tables:
            window *= u.shape[1]
        tr.add("sim_rows", rows)
        tr.add("sim_steps", rows * a["prio"].shape[0] * 2 * window)

    def canon_hook(tr, i, args, kwargs, result):
        a = bind_canon(args, kwargs)
        tr.add("canon_rows", a["upd_digits"].shape[0])
        tr.add("canon_kept", int(np.count_nonzero(result)))

    tr.wrap_function(kernels.sweep_block, "kernels.sweep", sweep_hook)
    tr.wrap_function(kernels.simulate_min_even, "kernels.sim", sim_hook)
    tr.wrap_function(kernels.canonical_mask, "kernels.canon", canon_hook)
    tr.wrap_function(kernels.decode_tables, "kernels.decode")


def install(tr: Tracer) -> None:
    """Wrap the public functions of every layer, the CLI's bindings included."""
    from mtgames import (_kernels, cli, core, equilibria, io, oracles, reductions,
                         search, solvers, strategy)

    _install_kernel_wrappers(tr, _kernels)

    def find_hook(tr, i, args, kwargs, result):
        tr.add("candidates", result.examined)

    for fn in (search.find_gne, search.find_cne, search.find_profile_with_wintop):
        tr.wrap_function(fn, "search.find", find_hook)

    def wintop_hook(tr, i, args, kwargs, result):
        # the target search's exact check asks wintop per player; count the
        # profile once, on its first player
        if tr.parent_name(i) == "search.find" and args[2] == args[0].players[0]:
            tr.add("exact_checks")

    tr.wrap_function(strategy.outcome, "strategy.outcome")
    tr.wrap_function(strategy.winners, "strategy.winners")
    tr.wrap_function(strategy.wintop, "strategy.wintop", wintop_hook)
    tr.wrap_method(strategy.StrategyBlock, "strategy_at", "strategy.strategy_at")
    tr.wrap_generator_method(strategy.StrategyBlock, "canonical_chunks",
                             "strategy.canonical_chunks")

    tr.wrap_function(core.parity_satisfied, "core.parity")
    tr.wrap_function(core.check_lasso, "core.check_lasso")
    tr.wrap_method(core.Mtg, "action_profiles", "core.action_profiles")

    def check_hook(tr, i, args, kwargs, result):
        if result.witness is not None:
            tr.add("witnesses")
        if tr.parent_name(i) == "search.find":
            tr.add("exact_checks")

    tr.wrap_function(equilibria.check_ne, "equilibria.check_ne", check_hook)
    tr.wrap_function(equilibria.check_gne, "equilibria.check_gne", check_hook)
    tr.wrap_function(equilibria.check_cne, "equilibria.check_cne", check_hook)
    tr.wrap_method(equilibria.DeviationOracle, "can_win", "equilibria.can_win")
    tr.wrap_function(equilibria.can_deviator_win_set, "equilibria.deviation_question")

    def arena_hook(key):
        def hook(tr, i, args, kwargs, result):
            tr.add(key, len(result.nodes))
        return hook

    tr.wrap_function(equilibria.build_knowledge_arena, "equilibria.karena",
                     arena_hook("karena_nodes"))
    tr.wrap_function(equilibria.build_residual_arena, "equilibria.residual",
                     arena_hook("residual_nodes"))

    def conj_hook(tr, i, args, kwargs, result):
        arena = args[0]
        active = args[1] if len(args) > 1 else kwargs.get("active")
        if active is None:
            active = [tuple(True for _ in range(arena.k)) for _ in arena.nodes]
        eff = solvers.effective_priorities(arena, active)
        pairs = sum(len({row[c] for row in eff if row[c] % 2 == 1}) for c in range(arena.k))
        tr.note_max("conj_pairs", pairs)
        if result.winner:
            tr.add("conj_wins")

    tr.wrap_function(solvers.solve_conjunction, "solvers.conj", conj_hook)
    tr.wrap_function(solvers.solve_one_player, "solvers.one_player")

    def h_hook(tr, i, args, kwargs, result):
        tr.add("h_states", len(result.states))

    tr.wrap_function(reductions.build_cne_game, "reductions.build", h_hook)
    tr.wrap_function(reductions.build_gne_game, "reductions.build", h_hook)

    for fn in (io.load_json, io.load_game, io.load_profile, io.load_targets):
        tr.wrap_function(fn, "io.load")
    for fn in (io.dumps_canonical, io.save_game, io.save_profile, io.save_h):
        tr.wrap_function(fn, "io.dump")

    # the brute-force cross-checks behind `mtgames oracle` are no layer of their
    # own; their span keeps their time out of the CLI's self time
    for fn in (oracles.omega_rank_agreement, oracles.gamma_sample,
               oracles.compare_deviation_checker):
        tr.wrap_function(fn, "oracles.run")

    tr.wrap_function(cli.main, "cli.main")


# ---------------------------------------------------------------------------
# layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    st = tr.span_stats()
    c = tr.counts

    def calls(name):
        return st.get(name, {}).get("calls", 0)

    def incl(name):
        return st.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return st.get(name, {}).get("self_s", 0.0)

    # oracle hits: can_win spans that asked no fresh deviation question
    asked = set()
    replay = 0.0
    first_winners: set[int] = set()
    for i, name in enumerate(tr.names):
        p = tr.parent[i]
        pname = tr.names[p] if p >= 0 else None
        if name == "equilibria.deviation_question" and pname == "equilibria.can_win":
            asked.add(p)
        elif name == "strategy.wintop" and pname == "equilibria.deviation_question":
            replay += tr.end[i] - tr.start[i]
        elif name == "strategy.winners" and pname == "equilibria.check_ne":
            # the first winners call of check_ne evaluates the profile; later
            # ones replay a residual witness
            if p in first_winners:
                replay += tr.end[i] - tr.start[i]
            else:
                first_winners.add(p)
    can_win = calls("equilibria.can_win")
    candidates = c["candidates"]
    sweep_s = incl("kernels.sweep")
    sim_s = incl("kernels.sim")
    return {
        "kernels.sweep_calls": calls("kernels.sweep"),
        "kernels.sweep_candidates": c["sweep_candidates"],
        "kernels.sweep_s": sweep_s,
        "kernels.sweep_ns_per_candidate": _ratio(sweep_s * 1e9, c["sweep_candidates"]),
        "kernels.sweep_steps_computed": c["sweep_steps"],
        "kernels.sim_calls": calls("kernels.sim"),
        "kernels.sim_rows": c["sim_rows"],
        "kernels.sim_s": sim_s,
        "kernels.sim_ns_per_row": _ratio(sim_s * 1e9, c["sim_rows"]),
        "kernels.sim_steps_computed": c["sim_steps"],
        "kernels.sim_rows_per_candidate": _ratio(c["sim_rows"], candidates),
        "kernels.canon_calls": calls("kernels.canon"),
        "kernels.canon_rows": c["canon_rows"],
        "kernels.canon_keep_ratio": _ratio(c["canon_kept"], c["canon_rows"]),
        "kernels.canon_s": incl("kernels.canon"),
        "kernels.decode_s": incl("kernels.decode"),
        "search.candidates": candidates,
        "search.exact_checks": c["exact_checks"],
        "search.survivor_ratio": _ratio(c["exact_checks"], candidates),
        "search.self_s": self_s("search.find"),
        "strategy.outcome_calls": calls("strategy.outcome"),
        "strategy.outcome_s": incl("strategy.outcome"),
        "strategy.wintop_calls": calls("strategy.wintop"),
        "strategy.wintop_s": incl("strategy.wintop"),
        "strategy.strategy_at_calls": calls("strategy.strategy_at"),
        "strategy.outcomes_per_profile": _ratio(calls("strategy.outcome"),
                                                calls("equilibria.check_gne")),
        "core.parity_calls": calls("core.parity"),
        "core.check_lasso_calls": calls("core.check_lasso"),
        "core.action_profiles_calls": calls("core.action_profiles"),
        "core.parity_s": incl("core.parity"),
        "equilibria.ne_calls": calls("equilibria.check_ne"),
        "equilibria.gne_calls": calls("equilibria.check_gne"),
        "equilibria.cne_calls": calls("equilibria.check_cne"),
        "equilibria.check_s": sum(incl(n) for n in ("equilibria.check_ne",
                                                    "equilibria.check_gne",
                                                    "equilibria.check_cne")),
        "equilibria.can_win_calls": can_win,
        "equilibria.deviation_questions": calls("equilibria.deviation_question"),
        "equilibria.oracle_hit_ratio": _ratio(can_win - len(asked), can_win),
        "equilibria.residual_nodes": c["residual_nodes"],
        "equilibria.residual_s": incl("equilibria.residual"),
        "equilibria.replay_s": replay,
        "equilibria.witnesses": c["witnesses"],
        "equilibria.karena_calls": calls("equilibria.karena"),
        "equilibria.karena_nodes": c["karena_nodes"],
        "equilibria.karena_s": incl("equilibria.karena"),
        "solvers.conj_calls": calls("solvers.conj"),
        "solvers.conj_s": incl("solvers.conj"),
        "solvers.conj_winner_ratio": _ratio(c["conj_wins"], calls("solvers.conj")),
        "solvers.conj_pairs_max": tr.maxima.get("conj_pairs", 0),
        "solvers.one_player_calls": calls("solvers.one_player"),
        "solvers.one_player_s": incl("solvers.one_player"),
        "reductions.build_calls": calls("reductions.build"),
        "reductions.build_s": incl("reductions.build"),
        "reductions.h_states": c["h_states"],
        "io.load_s": incl("io.load"),
        "io.dump_s": incl("io.dump"),
        "io.stdout_bytes": c["stdout_bytes"],
        "cli.self_s": self_s("cli.main"),
    }
