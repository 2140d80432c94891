"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED SIZE TRACE RESULT_JSON WORKDIR SPANS

A fresh interpreter starts every module-level cache of linwave cold, as a
``linwave evolve`` user finds them.  Set-up (importing linwave and building
the inputs), the run, and the checks are timed apart; with TRACE = 1 every
layer boundary is traced and the spans are written to SPANS after the run.
The result goes to RESULT_JSON; ``run.py`` starts this script and reads it.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        return "unknown"


def main(argv) -> int:
    workload, seed, size, trace, result_path, workdir, spans_path = argv
    seed, trace = int(seed), trace == "1"
    import numpy as np
    import linwave
    import workloads
    from tracing import Phase, Tracer

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(linwave.__file__).resolve().parents:
        sys.stderr.write(f"linwave imported from {linwave.__file__}, not from {src}\n")
        return 2
    wl = workloads.WORKLOADS[workload]
    state = wl.setup(seed, size, workdir)
    setup_s = time.perf_counter() - START

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    phase = Phase()
    tic, cpu = time.perf_counter(), time.process_time()
    out = wl.run(state, phase)
    wall = time.perf_counter() - tic
    cpu = time.process_time() - cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures = wl.figures(state, out)
    result = {
        "traced": trace,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "phase_s": phase.seconds,
        "mode_steps": wl.mode_steps(state),
        "peak_rss_mb": peak_rss_mb,
        "figures": figures,
        "checks": workloads.check(workload, figures),
        "numpy": np.__version__,
        "blas": _blas(),
        "linwave": linwave.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall)
        result["missing_layers"] = tracer.missing
        tracer.write(Path(spans_path))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
