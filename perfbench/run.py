"""vcbundle benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload auction --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout; the library is imported from
``src/``.  A run repeats the workload's fixed task list in rounds for about
``--seconds`` seconds, one task at a time in one thread (a closed loop with a
single client).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it spends half the time untraced and half traced, and reports
the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The end-to-end times are scaled to a fixed machine speed by ``probe.py``;
the summary lines give the unscaled times too.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
SETUP_PROBES = 5
DEFAULT_SEED = 1  # the seed whose output digests are recorded in digests.json
WORKLOAD_NAMES = ("auction", "analysis")


DIGEST_CHARS = 8  # per task; digests.json stores them concatenated per workload


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


class Round:
    """One pass over the task list: per-task latency, output digest, failure.

    A ``probe``, if given, is sampled between tasks, outside their timing,
    and ``scale`` converts this round's times to the reference speed.
    """

    def __init__(self, tasks, tracer=None, probe=None):
        first_sample = len(probe.samples) if probe is not None else 0
        self.latencies: list[float] = []
        self.digests: list[str | None] = []
        self.failures: list[tuple[int, str]] = []
        for idx, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = idx
            started = perf_counter()
            try:
                result = task.run()
            except Exception as exc:  # every exception is a failed task, budget errors included
                self.latencies.append(perf_counter() - started)
                self._fail(idx, f"{task.kind} raised {exc!r}")
                continue
            self.latencies.append(perf_counter() - started)
            try:
                self.digests.append(_digest(task.check(result)))
            except Exception as exc:
                self._fail(idx, f"{task.kind} check: {exc}")
            if probe is not None:
                probe.maybe_sample()
        self.wall = sum(self.latencies)
        self.scale = 1.0
        if probe is not None:
            if len(probe.samples) == first_sample:
                probe.sample()
            self.scale = probe.scale(first_sample)

    def _fail(self, idx: int, message: str) -> None:
        self.digests.append(None)
        self.failures.append((idx, message))


def run_rounds(tasks, budget: float, tracer=None, on_round=None, probe=None) -> list[Round]:
    """Rounds until the next one would end past ``budget`` seconds; at least one."""
    rounds = []
    started = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        rounds.append(Round(tasks, tracer, probe))
        if on_round is not None:
            on_round(rounds[-1])
        elapsed = perf_counter() - started
        if elapsed + rounds[-1].wall > budget:
            return rounds


def mismatches(rounds: list[Round], expected: list[str] | None) -> list[tuple[int, str]]:
    """Tasks whose output digest differs from ``expected`` (default: the first
    round's), once per round; failed tasks are already counted."""
    expected = expected if expected is not None else rounds[0].digests
    out = []
    for r in rounds:
        if len(r.digests) != len(expected):
            message = f"{len(r.digests)} tasks against {len(expected)} expected digests"
            return [(-1, message)] * sum(len(r.digests) for r in rounds)
        for idx, (got, want) in enumerate(zip(r.digests, expected)):
            if got is not None and got != want:
                out.append((idx, f"output digest {got} != expected {want}"))
    return out


def quantile(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=10)[q // 10 - 1]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import vcbundle and build
    the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - started)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="build the inputs and exit (setup probe)")
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's output digests as the expected ones for the default seed",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "vcbundle" / "__init__.py").is_file():
        print(f"error: no vcbundle sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vcbundle

    if Path(vcbundle.__file__).resolve().parent != SRC / "vcbundle":
        print(f"error: imported vcbundle from {vcbundle.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    tasks = workloads.build(args.workload, args.seed)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = None
    if args.seed == DEFAULT_SEED and args.workload in recorded:
        joined = recorded[args.workload]
        expected = [joined[i : i + DIGEST_CHARS] for i in range(0, len(joined), DIGEST_CHARS)]

    budget = args.seconds / 2 if args.trace else args.seconds
    probe = None if args.trace else SpeedProbe()
    plain = run_rounds(tasks, budget, probe=probe)
    traced: list[Round] = []
    layer_rounds: list[dict] = []
    if args.trace:
        tracer = tracing.Tracer()
        first_spans: list = []

        def keep(_round):
            layer_rounds.append(tracer.metrics())
            if not first_spans:
                first_spans.extend(tracer.spans)

        patches = tracing.install(tracer)
        try:
            traced = run_rounds(tasks, budget, tracer, on_round=keep)
        finally:
            tracing.uninstall(patches)
        OUT.mkdir(exist_ok=True)
        tracing.dump_spans(first_spans, OUT / f"spans-{args.workload}.json")

    rounds = plain + traced
    if args.record_digests:
        if args.seed != DEFAULT_SEED or any(r.failures for r in rounds):
            print("error: record digests from a clean run of the default seed", file=sys.stderr)
            return 1
        recorded[args.workload] = "".join(rounds[0].digests)
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        expected = rounds[0].digests
    failures = [f for r in rounds for f in r.failures] + mismatches(rounds, expected)
    attempted = len(tasks) * len(rounds)
    for idx, message in failures[:10]:
        print(f"FAIL task {idx}: {message}", file=sys.stderr)

    latencies = [t for r in plain for t in r.latencies]
    wall = statistics.median(r.wall for r in plain)
    lines = [
        f"# {args.workload} seed {args.seed}: {len(tasks)} tasks x {len(rounds)} rounds",
        "# round walls (s): " + " ".join(f"{r.wall:.3f}" for r in rounds),
        f"# failed_ratio {len(failures) / attempted:.6g} (1): {len(failures)} of {attempted} tasks failed",
    ]
    counts_repeat = True
    if args.trace:
        per_round = {name: [m[name] for m in layer_rounds] for name, _ in tracing.METRICS}
        counts_repeat = all(len(set(per_round[name])) == 1 for name, unit in tracing.METRICS if unit == "count")
        if not counts_repeat:
            print("FAIL: per-layer counts differ between traced rounds", file=sys.stderr)
        metrics = {
            name: {"value": statistics.median(per_round[name]) if unit == "s" else per_round[name][0], "unit": unit}
            for name, unit in tracing.METRICS
        }
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(r.wall for r in traced) / wall,
            "unit": "1",
        }
        lines.append("# one task at a time in one thread: nothing queues, so no layer reports wait time")
    else:
        setup_scale = probe.scale()  # setup runs just before the rounds: the run's median
        scaled = [t * r.scale for r in plain for t in r.latencies]
        p50, p90 = quantile(scaled, 50), quantile(scaled, 90)
        beyond = sum(1 for t in scaled if t > p90)
        metrics = {
            "setup_s": {"value": setup_s * setup_scale, "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall * r.scale for r in plain), "unit": "s"},
            "task_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "task_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
        lines += [
            f"# latency samples: {len(scaled)}, {beyond} of them beyond p90",
            f"# speed probe: {len(probe.samples)} samples, median {statistics.median(probe.samples) * 1e3:.4g} ms;"
            f" times are scaled to {REFERENCE_S * 1e3:g} ms by round, setup {setup_scale:.4g},"
            " rounds " + " ".join(f"{r.scale:.4g}" for r in plain),
            f"# unscaled: setup_s {setup_s:.6g} s, wall_s {wall:.6g} s,"
            f" task_p50_ms {quantile(latencies, 50) * 1e3:.6g} ms, task_p90_ms {quantile(latencies, 90) * 1e3:.6g} ms",
        ]
    for name, m in metrics.items():
        lines.append(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    correct = not failures and counts_repeat
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
