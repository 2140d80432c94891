"""linwave benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a linwave checkout; linwave is imported from its
``src/``.  Each repetition runs in a fresh interpreter (``rep.py``), one at a
time, with BLAS_THREADS BLAS threads.  Repetitions start until the next one
would end after ``--seconds``, with at least MIN_REPS of them.

With ``--trace 0`` every repetition is untraced and the metrics are the
``end_to_end`` ones of BENCHMARK.json, each the median over repetitions.
With ``--trace 1`` untraced and traced repetitions alternate and the metrics
are the ``per_layer`` ones, medians over the traced repetitions;
``trace.overhead_ratio`` compares their wall times.  Every repetition checks
its outputs: ``attempted`` and ``failed`` count those checks.

The full report (provenance, every repetition, figures of merit next to
their times) goes to ``perfbench/.out/`` and, as one JSON line, to standard
output before the last line.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"

# One BLAS thread keeps repetitions steady on a small shared machine and is
# never more than nproc; it is set explicitly and recorded.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = {False: 3, True: 4}  # untraced run; traced run (half of them traced)
RUN_LIMIT_S = 170.0  # a run never takes longer; a repetition past it is killed


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_rep(workload, seed, size, traced, index, timeout) -> dict:
    """Start one repetition and wait for it; return its result."""
    workdir = OUT / f"work-{workload}-{seed}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    cmd = [sys.executable, str(BENCH / "rep.py"), workload, str(seed), size,
           "1" if traced else "0", str(result), str(workdir),
           str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=timeout)
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{workload} repetition {index} exited {proc.returncode}")
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition {index} timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed, seconds, trace, size) -> list[dict]:
    """Repetitions of one workload; with trace, untraced and traced alternate."""
    min_reps = MIN_REPS[trace]
    start = time.perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        timeout = RUN_LIMIT_S - (time.perf_counter() - start)
        reps.append(run_rep(workload, seed, size, traced, len(reps), timeout))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if elapsed + per_rep > RUN_LIMIT_S:
            break
        if len(reps) >= min_reps and elapsed + per_rep > seconds:
            break
    return reps


def end_to_end(reps) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "mode_steps_per_s": statistics.median(r["mode_steps"] / r["phase_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    if not traced or not plain:
        raise BenchError("the run fit no traced/untraced pair of repetitions")
    out = {key: statistics.median(r["layers"][key] for r in traced)
           for key in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
    )
    return out


def provenance(seed, reps) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "blas": reps[0]["blas"],
        "blas_threads": BLAS_THREADS,
        "linwave": reps[0]["linwave"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def shares(layers) -> list[str]:
    """Self time of each layer as a share of the traced wall time."""
    wall = layers["trace.wall_s"]
    rows = sorted(((v, k[: -len(".self_s")]) for k, v in layers.items()
                   if k.endswith(".self_s")), reverse=True)
    return [f"{v / wall:7.1%}  {v:9.4f} s  {name}" for v, name in rows]


def main(argv=None) -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs, for selftest.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "linwave" / "__init__.py").is_file():
        sys.stderr.write(f"error: no linwave sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        values = per_layer(reps) if args.trace else end_to_end(reps)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    checks = [c for r in reps for c in r["checks"]]
    failed = sum(not c["pass"] for c in checks)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "provenance": provenance(args.seed, reps),
        "samples": len(reps),
        "metrics": metrics,
        "checks": reps[0]["checks"],
        "repetitions": [{k: v for k, v in r.items() if k != "checks"} for r in reps],
    }
    text = json.dumps(report, sort_keys=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        text + "\n")
    print(text)
    if args.trace:
        print(f"per-layer self time, {args.workload}, seed {args.seed}:")
        print("\n".join(shares(values)))
    for c in reps[0]["checks"]:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']} = {c['value']:.3e} "
              f"{c['op']} {c['tolerance']:g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
