"""The benchmark tracer wraps linwave functions by name, from outside the
library; a renamed or deleted function silently drops its layer from every
benchmark report.  This test loads the tracer's layer tables, without
installing any wrapper, and resolves every target against linwave."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# layers the tracer still lists although linwave no longer has them
KNOWN_MISSING = {"spacetime.family_matrices"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    targets = [(mod, path, name) for mod, path, name, _ in tracing.SPANS]
    targets += list(tracing.COUNTERS)
    assert targets
    missing = {name for mod, path, name in targets if tracing._resolve(mod, path) is None}
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
