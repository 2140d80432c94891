"""Per-layer tracing of linwave from outside the library.

Each public function listed in SPANS is replaced by a wrapper that records
a span (name, parent span, start, end) in memory.  Module-level functions
are patched under every name that refers to them in any loaded ``linwave``
module, because ``evolution`` and ``cli`` bind names such as
``family_matrices``, ``FamilyAction`` and ``dphi`` at import time.  Methods
are patched on their class.  Nothing inside ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children; ``other.self_s`` is the part of the traced wall time that no
top-level span covers, so the self times of one run add up to its wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path


def rk4_steps(t0, times, dt) -> int:
    """Fixed-step RK4 steps taken to visit ``times`` in order from ``t0``:
    each gap is split into ceil(|gap| / dt) equal steps, as linwave's
    Kasner integrators do."""
    if dt is None:
        return 0
    steps, t = 0, float(t0)
    for tau in times:
        tau = float(tau)
        if abs(tau - t) > 1e-14:
            steps += max(1, math.ceil(abs(tau - t) / dt - 1e-12))
            t = tau
    return steps


# ---------------------------------------------------------------------------
# Hooks: counts measured at the layer boundary from the call and its result
# ---------------------------------------------------------------------------


def _apply_flops(tracer, args, kwargs, out):
    # out = W @ flat with W the (modes, npoly * ncomp_in) outer product of
    # the monomial basis and u: 8 flops per complex multiply-add, plus 2 per
    # real-times-complex entry of W.  Computed from operand shapes.
    action, u = args[0], args[2]
    basis = getattr(action, "basis", None)
    npoly = basis.shape[1] if basis is not None else 1
    modes, ncomp_in = u.shape
    ncomp_out = out.shape[1]
    tracer.amounts["spacetime.FamilyAction.apply.flop"] += (
        8.0 * modes * npoly * ncomp_in * ncomp_out + 2.0 * modes * npoly * ncomp_in
    )


def _matrix_bytes(tracer, args, kwargs, out):
    tracer.amounts["spacetime.family_matrices.bytes"] += sum(m.nbytes for m in out)


def _snapshot_bytes(tracer, args, kwargs, out):
    prefix = Path(args[1] if len(args) > 1 else kwargs["prefix"])
    tracer.amounts["snapshots.save_pair.bytes"] += sum(
        p.stat().st_size for p in prefix.parent.glob(prefix.name + ".*")
    )


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _evolve_steps(tracer, args, kwargs, out):
    a = _bound(tracer.originals["evolution.evolve"], args, kwargs)
    steps = rk4_steps(a["jet"].t0, out.times, a["dt"])
    tracer.counts["evolution.evolve.steps"] += steps
    tracer.counts["evolution.rk4_steps"] += steps


def _lie_steps(tracer, args, kwargs, out):
    a = _bound(tracer.originals["evolution.lie_trajectory"], args, kwargs)
    if a["bg"].kind != "minkowski-torus":
        tracer.counts["evolution.rk4_steps"] += rk4_steps(out.times[0], out.times, a["dt"])


def _recover_steps(tracer, args, kwargs, out):
    traj = args[0] if args else kwargs["traj"]
    tracer.counts["evolution.rk4_steps"] += rk4_steps(traj.times[0], traj.times, traj.dt)


# (module, attribute path, span name, hook run after each call)
SPANS = (
    ("linwave.spacetime", "ModeOperator.matrices", "spacetime.ModeOperator.matrices", None),
    ("linwave.spacetime", "family_coefficients", "spacetime.family_coefficients", None),
    ("linwave.spacetime", "FamilyAction.apply", "spacetime.FamilyAction.apply", _apply_flops),
    ("linwave.spacetime", "family_matrices", "spacetime.family_matrices", _matrix_bytes),
    ("linwave.spacetime", "induced_data_state", "spacetime.induced_data_state", None),
    ("linwave.evolution", "evolve", "evolution.evolve", _evolve_steps),
    ("linwave.evolution", "diagnostics", "evolution.diagnostics", None),
    ("linwave.evolution", "wave_energies", "evolution.wave_energies", None),
    ("linwave.evolution", "lie_trajectory", "evolution.lie_trajectory", _lie_steps),
    ("linwave.evolution", "recover_gauge_vector", "evolution.recover_gauge_vector",
     _recover_steps),
    ("linwave.constraints", "dphi", "constraints.dphi", None),
    ("linwave.constraints", "dphi_oracle", "constraints.dphi_oracle", None),
    ("linwave.fields", "synthesize_shifted", "fields.synthesize_shifted", None),
    ("linwave.decomposition", "split_solve", "decomposition.split_solve", None),
    ("linwave.decomposition", "moncrief_project", "decomposition.moncrief_project", None),
    ("linwave.snapshots", "save_pair", "snapshots.save_pair", _snapshot_bytes),
    ("linwave.cli", "cmd_evolve", "cli.cmd_evolve", None),
)

# counted at the boundary, without a span of their own
COUNTERS = (
    ("linwave.spacetime", "FamilyAction.__init__", "spacetime.FamilyAction.builds"),
)


def _rebind(original, replacement) -> None:
    """Point every name bound to ``original`` in a loaded linwave module at
    ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "linwave" or modname.startswith("linwave.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _resolve(modname, path):
    """(owner, attribute, original) or None when the layer no longer exists."""
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    return None if original is None else (owner, attr, original)


def _replace(owner, attr, original, replacement) -> None:
    if inspect.isclass(owner):
        setattr(owner, attr, replacement)
    else:
        _rebind(original, replacement)


class Tracer:
    """Spans and boundary counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)
        self.originals: dict = {}
        self.missing: list[str] = []

    def _span(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, modname, path, name, make) -> None:
        found = _resolve(modname, path)
        if found is None:
            self.missing.append(name)
            return
        owner, attr, original = found
        self.originals[name] = original
        _replace(owner, attr, original, make(original))

    def install(self) -> None:
        """Patch every layer boundary that exists in the loaded linwave."""
        for modname, path, name, hook in SPANS:
            self._patch(modname, path, name,
                        lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for modname, path, name in COUNTERS:
            self._patch(modname, path, name,
                        lambda fn, name=name: self._counter(name, fn))

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer counts and self times of the run, keyed by metric name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        top = 0.0
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top += end - start
        out: dict[str, float] = {}
        for _, _, name, _ in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, (name, _, start, end) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
        # family_coefficients calls that assembled rather than hit the cache
        assembled = len({parent for name, parent, _, _ in spans
                         if name == "spacetime.ModeOperator.matrices" and parent >= 0
                         and spans[parent][0] == "spacetime.family_coefficients"})
        coeff_calls = out["spacetime.family_coefficients.calls"]
        steps = self.counts["evolution.evolve.steps"]
        out.update({
            "other.self_s": wall - top,
            "trace.wall_s": wall,
            "spacetime.family_coefficients.reuse_ratio":
                1.0 - assembled / coeff_calls if coeff_calls else 0.0,
            "spacetime.FamilyAction.builds": self.counts["spacetime.FamilyAction.builds"],
            "spacetime.FamilyAction.apply.gflop_computed":
                self.amounts["spacetime.FamilyAction.apply.flop"] / 1e9,
            "spacetime.family_matrices.mbytes_computed":
                self.amounts["spacetime.family_matrices.bytes"] / 1e6,
            "snapshots.save_pair.bytes": self.amounts["snapshots.save_pair.bytes"],
            "evolution.rk4_steps": self.counts["evolution.rk4_steps"],
            "evolution.evolve.s_per_step":
                out["evolution.evolve.self_s"] / steps if steps else 0.0,
        })
        return out

    def write(self, path: Path) -> None:
        """Write the spans, one JSON object per line, after the run."""
        with open(path, "w") as f:
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


class Phase:
    """Accumulated time of a workload's main compute phase: the blocks run
    under ``with phase:`` plus every call of the functions passed to
    ``watch``."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start

    def watch(self, modname, names) -> None:
        """Add the duration of every call of ``modname.<name>`` for each name,
        under every name linwave binds it to."""
        clock = time.perf_counter

        def timed(fn):
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds += clock() - start
            return wrapper

        for name in names:
            found = _resolve(modname, name)
            if found is None:
                raise RuntimeError(f"{modname}.{name} not found")
            owner, attr, original = found
            _replace(owner, attr, original, timed(original))
