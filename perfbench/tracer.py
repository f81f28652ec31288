"""Trace bdgame from outside: wrap the public functions of each module.

A wrapper is installed at every place a function is bound, not only where
it is defined: `bdgame.cli.derive_game`, `bdgame.goals.entails` and the
other names one module imports from another are all rebound, and so are the
public methods of `GameSpecification`.  Nothing under `src/` changes.

Every wrapped function gets a call count and its self time: its duration
minus the time covered by wrapped calls made inside it.  Every layer (the
module a function is defined in) gets its inclusive time: the time inside
its outermost calls, callees in other layers included.  The coarse layer
entry points in `SPANS` also record one span per call, with the id of the
enclosing span and the index of the job, so a run can be laid out as a
tree.  Hot functions such as `entails` and `profile_geq`, which run millions
of times, only feed the aggregates.  All of it stays in memory until
`write`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from functools import wraps
from math import prod
from pathlib import Path

LAYERS = ("logic", "extension", "model", "decision", "game", "goals",
          "verify", "cli")

SPANS = frozenset({
    "cli.main", "model.parse_spec", "model.validate_spec", "game.derive_game",
    "game.solve", "game.pareto", "game.strongly_pareto", "game.dominant",
    "game.nash", "goals.u_closure", "goals.delta_goal_sets",
    "goals.pareto_via_goals", "goals.representation_check",
    "goals.feasible_representation_check", "goals.concept_family",
    "goals.apply_decision_rule", "verify.check_representation",
    "verify.check_pipeline_equivalence", "decision.enumerate_profiles"})

# Functions whose distinct arguments are counted, per job: the arguments
# after the spec, which is one object for the whole of a CLI call.
DISTINCT = frozenset({"decision.agent_extension", "decision.joint_extension",
                      "goals.goal_set_of"})

METHODS = ("profile_geq", "strictly_better", "unreached", "index_of")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, list] = {}  # name -> [calls, self seconds]
        self.layers: dict[str, list] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.distinct_total = dict.fromkeys(DISTINCT, 0)
        self.counters = {"extension.rounds": 0, "game.profiles.candidate": 0,
                         "game.profiles.feasible": 0, "game.classes": 0,
                         "logic.entails.universe_atoms": 0}
        self.spans: list[tuple] = []
        self.job = -1
        self._child = [0.0]  # time covered by wrapped calls, per open frame
        self._open_spans = [-1]
        self._originals: dict[str, object] = {}  # name -> unwrapped function
        self._restore: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple] = {}

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.calls.setdefault(name, [0, 0.0])
        # [open calls into the layer, seconds inside the outermost ones]
        layer = self.layers.setdefault(name.partition(".")[0], [0, 0.0])
        child = self._child
        push, pop, clock = child.append, child.pop, time.perf_counter
        after = self._after(name)
        spans = self.spans if name in SPANS else None
        open_spans = self._open_spans

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if spans is not None:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                open_spans.append(sid)
            layer[0] += 1
            push(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = pop()
                child[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - inner
                layer[0] -= 1
                if not layer[0]:
                    layer[1] += elapsed
                if spans is not None:
                    open_spans.pop()
                    spans[sid] = (self.job, sid, parent, name, start, end,
                                  elapsed - inner)
            if after is not None:
                # Bookkeeping, charged to no function's self time.  It reads
                # bdgame's data types; if they change shape, the counter
                # stops counting and the run goes on.
                mark = clock()
                try:
                    after(args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    pass
                child[-1] += clock() - mark
            return result
        return wrapper

    def _after(self, name: str):
        counters = self.counters
        if name in DISTINCT:
            seen = self.distinct[name]

            def record(args, kwargs, result):
                seen.add(args[1:] + tuple(sorted(kwargs.items())))
            return record
        if name == "extension.extension":
            def record(args, kwargs, result):
                counters["extension.rounds"] += result.iterations
            return record
        if name == "logic.entails":
            atoms_of = self._originals["logic.atoms_of"]

            def record(args, kwargs, result):
                atoms = kwargs.get("atoms")
                if atoms is None:
                    names = set()
                    for f in tuple(args[0]) + (args[1],):
                        names |= atoms_of(f)
                    atoms = names
                counters["logic.entails.universe_atoms"] += len(atoms)
            return record
        if name == "game.derive_game":
            def record(args, kwargs, result):
                agents = result.spec.agent_ids
                counters["game.profiles.candidate"] += prod(
                    len(ds) for ds in result.feasible_decisions.values())
                counters["game.profiles.feasible"] += len(result.profiles)
                counters["game.classes"] += len({
                    tuple(ep.report.unreached(a) for a in agents)
                    for ep in result.profiles})
            return record
        return None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from bdgame import logic
        from bdgame.game import GameSpecification

        modules = [importlib.import_module(f"bdgame.{layer}")
                   for layer in LAYERS]
        targets: dict[int, tuple[object, str]] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        self._originals = {name: fn for fn, name in targets.values()}
        wrapped = {key: self._wrap(name, fn)
                   for key, (fn, name) in targets.items()}
        for module in [m for n, m in sys.modules.items()
                       if n == "bdgame" or n.startswith("bdgame.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        for attr in METHODS:
            method = vars(GameSpecification).get(attr)
            if method is None:
                continue
            self._restore.append((GameSpecification, attr, method))
            setattr(GameSpecification, attr,
                    self._wrap(f"game.{attr}", method))
        self._caches["before"] = _cache_infos(logic)

    def uninstall(self) -> None:
        from bdgame import logic

        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()
        self._caches["after"] = _cache_infos(logic)
        self.begin_job()

    def begin_job(self) -> None:
        """Close the distinct-argument sets of the job that just ended."""
        for name, seen in self.distinct.items():
            self.distinct_total[name] += len(seen)
            seen.clear()
        self.job += 1

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        before, after = self._caches["before"], self._caches["after"]
        counters = dict(self.counters)
        counters["logic.mask_cache.hits"] = after[0] - before[0]
        counters["logic.mask_cache.misses"] = after[1] - before[1]
        counters["logic.mask_cache.entries"] = after[2] - before[2]
        counters["logic.atom_patterns.built"] = after[3] - before[3]
        return {"functions": {name: {"calls": c, "self_s": s}
                              for name, (c, s) in sorted(self.calls.items())},
                "layer_inclusive_s": {layer: seconds for layer, (_, seconds)
                                      in sorted(self.layers.items())},
                "distinct": self.distinct_total, "counters": counters}

    def write(self, path: Path, counters: dict) -> None:
        out = self.summary()
        out["counters"].update(counters)
        out["span_fields"] = ["job", "id", "parent", "name", "start", "end",
                              "self_s"]
        out["spans"] = self.spans
        path.write_text(json.dumps(out), encoding="utf-8")


def _cache_infos(logic) -> tuple[int, int, int, int]:
    """(hits, misses, size) of the mask cache; misses of the pattern cache.

    Both caches are private; a logic layer without them reads as zeros.
    """
    mask = getattr(logic, "_mask", None)
    pattern = getattr(logic, "_atom_pattern", None)
    m = mask.cache_info() if hasattr(mask, "cache_info") else None
    p = pattern.cache_info() if hasattr(pattern, "cache_info") else None
    return (m.hits if m else 0, m.misses if m else 0,
            m.currsize if m else 0, p.misses if p else 0)
