"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run of ``run.py --size small``
must print, as the last line, a result with every metric BENCHMARK.json
declares, each with its unit, and pass every check; each traced repetition's
self times must add up to its traced wall time.  Then every correctness gate
is fed a perturbed figure and must count one more failure.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)
        print(f"FAIL {what}")


def wrong_values(op, tol):
    """Figures a wrong answer would produce for a gate."""
    if op == "<=":
        return (tol * 1e3, math.nan)
    if op == ">=":
        return (tol / 4.0, math.nan)  # e.g. a 2nd-order integrator halves 4x
    return (1, 2)


def check_run(bench, workload, trace) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    tag = f"{workload} trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{tag}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: checks {result['attempted']} attempted, {result['failed']} failed")
    declared = bench["per_layer" if trace else "end_to_end"]
    expect([m["name"] for m in declared] == list(result["metrics"]), f"{tag}: metric names")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"], f"{tag}: unit of {m['name']}")
        value = got.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value)
               and (value > 0 or trace == 1), f"{tag}: value of {m['name']} = {value}")
    if trace:
        report = json.loads(proc.stdout.splitlines()[0])
        for rep in report["repetitions"]:
            if not rep["traced"]:
                continue
            layers = rep["layers"]
            total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            expect(abs(total - layers["trace.wall_s"]) <= 1e-9 * layers["trace.wall_s"]
                   and layers["other.self_s"] >= 0.0,
                   f"{tag}: self times add to {total}, wall {layers['trace.wall_s']}")
            expect(not rep["missing_layers"], f"{tag}: missing {rep['missing_layers']}")


def check_gates(workload) -> None:
    report = json.loads((run.OUT / f"report-{workload}-seed0-trace0.json").read_text())
    figures = report["repetitions"][0]["figures"]
    base = sum(not c["pass"] for c in workloads.check(workload, figures))
    expect(base == 0, f"{workload}: {base} gates fail on the real figures")
    for name, (op, tol) in workloads.GATES[workload].items():
        for bad in (*wrong_values(op, tol), None):
            perturbed = dict(figures)
            if bad is None:
                del perturbed[name]
            else:
                perturbed[name] = bad
            failed = sum(not c["pass"] for c in workloads.check(workload, perturbed))
            expect(failed == base + 1, f"{workload}: gate {name} passes {bad!r}")


def main() -> int:
    bench = run.spec()
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
        check_gates(w["name"])
        print(f"{w['name']}: done")
    print("selftest:", "FAILED" if FAILURES else "ok", f"({len(FAILURES)} failures)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
