"""Spans recorded around spinloop's public functions, from outside the package.

``Tracer.install`` swaps each target for a wrapper in every loaded
``spinloop`` module that binds it, so calls made inside the package (for
example ``gridsim.run`` calling ``evolve``) are caught as well. Spans stay in
memory as (name, start, end, parent, op id, attribute) and are written out
once the run ends. Targets missing from the package are skipped, and their
metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _samples(fn):
    sig = inspect.signature(fn)

    def attr(args, kwargs, _result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n_samples"]

    return attr


def _potential_bytes(args, _kwargs, _result):
    potential = getattr(args[0], "potential", None)
    return 0 if potential is None else int(potential.nbytes)


# (module, attribute path, span name, attribute recorder factory)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load_config", None),
    ("packets", "acceleration_profile", "packets.acceleration_profile", _samples),
    ("packets", "moments", "packets.moments", None),
    ("deflection", "contract_force", "deflection.contract_force", None),
    ("epr", "joint_distribution", "epr.joint_distribution", None),
    ("gridsim", "GridOperator.__init__", "gridsim.build", lambda fn: _potential_bytes),
    ("gridsim", "GridOperator.apply", "gridsim.apply", None),
    ("gridsim", "evolve", "gridsim.evolve", None),
    ("gridsim", "run", "gridsim.run", None),
    ("gridsim", "initialize", "gridsim.initialize", None),
    ("gridsim", "moments_from_state", "gridsim.moments_from_state", None),
    ("gridsim", "fit_acceleration", "gridsim.fit_acceleration", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, attr):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(index)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                extra = attr(args, kwargs, result) if attr else None
                tracer.spans[index] = (name, t0, t1, parent, tracer.op_id, extra)

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "spinloop" or n.startswith("spinloop.")]
        for module_name, path, name, attr_factory in TARGETS:
            owner = sys.modules.get(f"spinloop.{module_name}")
            *parents, leaf = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, attr_factory(fn) if attr_factory else None)
            if parents:  # a method: patch the class once
                self._undo.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, float]:
    """Per-layer metrics over ``passes`` traced passes; counts are per pass."""
    dur: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        dur[name].append(t1 - t0)
        if parent is not None:
            child_time[parent] += t1 - t0

    def self_times(name):
        return [s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name]

    def mean(name, scale):
        return scale * sum(dur[name]) / len(dur[name]) if dur[name] else 0.0

    def total(*names):
        return sum(sum(dur[n]) for n in names) / passes

    samples = sum(s[5] for s in spans if s[0] == "packets.acceleration_profile")
    cli_self = self_times("cli.main")
    potentials = [s[5] for s in spans if s[0] == "gridsim.build"]
    return {
        **{metric: len(dur[name]) / passes for metric, name in COUNTED.items()},
        "gridsim.apply_ms": mean("gridsim.apply", 1e3),
        "gridsim.step_ms": mean("gridsim.evolve", 1e3),
        "gridsim.run_self_s": sum(self_times("gridsim.run")) / passes,
        "gridsim.build_s": total("gridsim.build"),
        "gridsim.prep_s": total("gridsim.initialize", "gridsim.moments_from_state",
                                "gridsim.fit_acceleration"),
        "gridsim.potential_mb": max(potentials, default=0) / 2**20,
        "packets.moments_ms": mean("packets.moments", 1e3),
        "packets.profile_sample_ms": (
            1e3 * sum(dur["packets.acceleration_profile"]) / samples if samples else 0.0
        ),
        "deflection.contract_us": mean("deflection.contract_force", 1e6),
        "epr.joint_ms": mean("epr.joint_distribution", 1e3),
        "config.load_ms": mean("config.load_config", 1e3),
        "cli.self_ms": 1e3 * sum(cli_self) / len(cli_self) if cli_self else 0.0,
    }


# Exact per-pass counts and the span each one counts.
COUNTED = {
    "gridsim.apply_count": "gridsim.apply",
    "gridsim.step_count": "gridsim.evolve",
    "packets.moments_count": "packets.moments",
    "deflection.contract_count": "deflection.contract_force",
    "epr.joint_count": "epr.joint_distribution",
}


def pass_counts(spans: list[tuple], pass_id: str) -> dict[str, int]:
    """Exact counts of one pass, from the spans whose op id starts with it."""
    names = Counter(s[0] for s in spans if s[4].startswith(pass_id + "/"))
    return {metric: names[name] for metric, name in COUNTED.items()}
