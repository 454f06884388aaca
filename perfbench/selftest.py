"""Self-test of the benchmark itself, not of recdom.

    python3 perfbench/selftest.py

Checks that
- the metric names and units in BENCHMARK.json match what the runs report;
- a traced run of each workload, one round with one seed, repeats every
  count metric exactly when run twice in fresh interpreters;
- an untraced run leaves no span wrapper installed, and a traced pass
  removes all of them again;
- the per-operation deadline turns the 3-D tetrahedron lift, a known wall,
  into a failed operation marked as a timeout.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run

SEED = 7
TIMEOUT_PROBE_S = 1.0
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(SEED), "--trace", "1", "--rounds", "1"],
        check=True, capture_output=True, text=True, timeout=170,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_declared_metrics(tracer_module, workloads) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches the untraced report")
    layer = {name: unit for name, (_, unit) in tracer_module.Tracer().metrics().items()}
    layer["trace.overhead_frac"] = "frac"
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == layer, "BENCHMARK.json per_layer matches the traced report")
    names = {w["name"] for w in spec["workloads"]}
    expect(names <= set(workloads.WORKLOADS), "BENCHMARK.json names only known workloads")


def check_counts_repeat(workload: str) -> None:
    first, second = traced_run(workload), traced_run(workload)
    expect(first["correct"] and second["correct"], f"{workload}: traced runs are correct")
    counts = {
        name: (m["value"], second["metrics"][name]["value"])
        for name, m in first["metrics"].items()
        if m["unit"] == "count"
    }
    differ = {name: pair for name, pair in counts.items() if pair[0] != pair[1]}
    expect(not differ, f"{workload}: {len(counts)} count metrics repeat exactly {differ or ''}")
    worked = sum(1 for a, _ in counts.values() if a)
    expect(worked > 0, f"{workload}: {worked} count metrics are nonzero")


def check_wrappers(tracer_module, workloads) -> None:
    workload = workloads.WORKLOADS["lifts"](SEED)
    result = run.measure(workload, rounds=1)
    expect(not result.failures, "untraced pass has no failed operations")
    expect(tracer_module.installed_wrappers() == [], "untraced pass leaves no wrapper installed")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        installed = tracer_module.installed_wrappers()
    finally:
        tracer.uninstall()
    expect(
        "recdom.topology.rank_over_field" in installed
        and "recdom.geometry.rref" in installed
        and "recdom.separation_witness" in installed,
        f"install wraps defining and importing modules ({len(installed)} attributes)",
    )
    expect(tracer_module.installed_wrappers() == [], "uninstall restores every original")


def check_timeout() -> None:
    from recdom import lifting

    def tetrahedron_lift():
        pc = lifting.embedded_complex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])
        yield lifting.lift(pc)

    result = run.Pass()
    start = perf_counter()
    run.run_ops(tetrahedron_lift(), result, timeout=TIMEOUT_PROBE_S)
    took = perf_counter() - start
    expect(
        result.attempted == 1
        and not result.latencies
        and len(result.failures) == 1
        and result.failures[0].startswith("timeout")
        and took < TIMEOUT_PROBE_S + 5,
        f"3-D tetrahedron lift fails as a timeout after {took:.2f} s",
    )


def main() -> int:
    run.import_recdom()
    import tracer as tracer_module
    import workloads

    check_declared_metrics(tracer_module, workloads)
    check_wrappers(tracer_module, workloads)
    check_timeout()
    for name in workloads.WORKLOADS:
        check_counts_repeat(name)
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
