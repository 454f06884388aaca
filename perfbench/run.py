"""recdom benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload selections --seed 1 --seconds 10 --trace 0

One client runs one operation at a time in this process (a closed loop, no
extra threads).  The untraced run (``--trace 0``) measures whole rounds of
inputs until ``--seconds`` have passed and reports the end-to-end metrics.
The traced run (``--trace 1``) runs a fixed number of rounds twice on the
same inputs, first untraced and then, with the library caches emptied,
traced; it reports the per-layer metrics, whose counts repeat exactly for a
given seed.  Verdicts are checked after the measured window.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 10.0  # per operation; a wall becomes a failed operation
SETUP_PROBES = 15  # set-ups timed per run; setup_s is their median
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
RSS_ROUNDS = 2  # peak RSS is read after this many rounds; runs do at least this many
HELD_OUT_SEED = 90210  # claims of a gain must also hold on this seed

# name -> unit, in the order they are printed; fail_frac is printed but is
# not a bounded metric, because it reads 0 whenever the program is correct.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_recdom():
    """Import recdom from the checkout's ``src`` and nowhere else."""
    package = SRC / "recdom"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no recdom sources at {package}")
    sys.path.insert(0, str(SRC))
    import recdom

    if Path(recdom.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported recdom from {recdom.__file__}, not {package}")
    return recdom


class OpTimeout(BaseException):
    """An operation ran past its deadline.

    Derived from BaseException so no handler in the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


@contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Pass:
    """Outcome of running rounds of one workload."""

    latencies: list = field(default_factory=list)
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    rounds: int = 0
    elapsed: float = 0.0
    rss_mb: float = 0.0  # peak RSS after RSS_ROUNDS rounds, or after the last

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


def run_ops(ops, record_to, timeout: float = OP_TIMEOUT_S, tracer=None) -> None:
    """Drive one operation generator, timing each step under a deadline."""
    while True:
        start = perf_counter()
        try:
            with deadline(timeout):
                record = next(ops)
        except StopIteration:
            return
        except OpTimeout:
            failure = f"timeout after {timeout} s"
        except Exception:
            failure = "raised: " + traceback.format_exc(limit=3)
        else:
            failure = None
        record_to.attempted += 1
        if failure is None:
            record_to.latencies.append(perf_counter() - start)
            record_to.records.append(record)
            continue
        record_to.failures.append(failure)
        ops.close()
        if tracer is not None:
            tracer.reset_stack()
        return


def measure(workload, *, seconds=None, rounds=None, tracer=None) -> Pass:
    """Whole rounds, until ``rounds`` are done, the whole round nearest to
    ``seconds`` has ended, or the workload has no unseen inputs left."""
    result = Pass()
    start = perf_counter()
    while True:
        items = workload.round(result.rounds)
        if not items:
            if rounds is not None:
                # a traced run must do its fixed amount of work
                result.failures.append(f"inputs exhausted after {result.rounds} rounds")
            return result
        for item in items:
            run_ops(workload.ops(item), result, tracer=tracer)
        now = perf_counter()
        result.rounds += 1
        result.elapsed = now - start
        if result.rounds <= RSS_ROUNDS:
            result.rss_mb = peak_rss_mb()
        if rounds is not None:
            if result.rounds >= rounds:
                return result
        elif result.rounds >= RSS_ROUNDS and result.elapsed * (1 + 0.5 / result.rounds) >= seconds:
            # the next round would end more than half a round past the window
            return result


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import recdom and draw the
    first round of inputs, which is what a run does before its first op.

    No timeout on the wait: with one, subprocess polls in 50 ms steps."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "op_timeout_s": OP_TIMEOUT_S,
    }


def run_untraced(workload, args, tracer_module):
    setup = setup_seconds(args.workload, args.seed)
    workload.round(0)  # draw the first inputs before the window, as the set-up probes do
    result = measure(workload, seconds=args.seconds)
    wrong = workload.check(result.records)
    leftover = tracer_module.installed_wrappers()
    p50 = statistics.median(result.latencies) if result.latencies else 0.0
    tail_s, tail_pct = tail(result.latencies) if result.latencies else (0.0, 100.0)
    failed = len(result.failures) + len(wrong)
    values = {
        "ops_per_s": result.ops_per_s if result.elapsed else 0.0,
        "op_p50_ms": 1e3 * p50,
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": setup,
        "peak_rss_mb": result.rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = {
        "ops_per_s": f"{len(result.latencies)} ops in {result.rounds} rounds, {result.elapsed:.3f} s",
        "op_tail_ms": f"p{tail_pct:.2f} of {len(result.latencies)} ops, {TAIL_BEYOND} beyond",
        "setup_s": f"median of {SETUP_PROBES} set-ups",
        "peak_rss_mb": f"after {min(RSS_ROUNDS, result.rounds)} rounds; {peak_rss_mb():.1f} at the end",
    }
    lines = [
        f"  {name:<12} {value:12.4f} {unit:<5} {notes.get(name, '')}"
        for name, (value, unit) in metrics.items()
    ]
    lines.insert(3, f"  {'fail_frac':<12} {failed / max(result.attempted, 1):12.4f} frac  "
                    f"{failed} of {result.attempted} attempted")
    problems = result.failures + wrong
    if leftover:
        problems.append(f"untraced run left wrappers installed: {leftover}")
    return result.attempted, failed, problems, metrics, lines


def run_traced(workload, args, tracer_module):
    rounds = args.rounds or workload.trace_rounds
    plain = measure(workload, rounds=rounds)
    problems = plain.failures + workload.check(plain.records)
    tracer_module.clear_caches()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = measure(workload, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    problems += traced.failures + workload.check(traced.records)
    overhead = plain.ops_per_s / traced.ops_per_s - 1 if traced.latencies else 0.0
    layer["trace.overhead_frac"] = (overhead, "frac")
    lines = [f"  {name:<48} {value!r} {unit}" for name, (value, unit) in layer.items()]
    lines.insert(0, f"  {rounds} rounds: {plain.attempted} untraced ops, then {traced.attempted} traced")
    return plain.attempted + traced.attempted, len(problems), problems, layer, lines


def run_each(args, names) -> int:
    """Every workload in turn, each in a fresh interpreter, output passed through."""
    status = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.rounds:
            command += ["--rounds", str(args.rounds)]
        sys.stdout.flush()
        status |= subprocess.run(command).returncode
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds in a traced run (default: the workload's own)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_recdom()
    import tracer as tracer_module
    import workloads

    if args.workload == "all":
        return run_each(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.round(0)
        return 0
    runner = run_traced if args.trace else run_untraced
    attempted, failed, problems, metrics, lines = runner(workload, args, tracer_module)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in metadata(args).items()))
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
