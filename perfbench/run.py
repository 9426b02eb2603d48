"""DPFS benchmark: closed-loop workloads with checked results.

    python3 perfbench/run.py --workload strips-mem --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object
holding every ``end_to_end`` metric of ``BENCHMARK.json``; with
``--trace 1`` it holds every ``per_layer`` metric instead.  The lines
before it are a readable table of every metric the workload measures.
The exit code is 0 only when every op and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
MiB = 1 << 20

# set-ups per run (setup_s is their median): SETUP_MIN_REPS one after
# another before the first block, the last of them the mount the blocks
# drive; then one spare set-up after a block, in a helper process
# (spare.py), while all set-ups together have taken under SETUP_SHARE of
# the measured time, so the sample spans the run and not one phase of
# the shared machine
SETUP_MIN_REPS = 5
SETUP_SHARE = 0.15
MIN_BLOCKS = 2         # a traced run needs a traced and an untraced block
HARD_STOP_S = 120.0    # never start a block after this, whatever --seconds
# share of each op kind and level, its slowest ops, that rates leave out:
# the tail of fsync and scheduling delays on a shared machine moves from
# run to run; a change that slows more ops than this still moves the rate
TRIM = 0.05
CHUNK_OPS = 100        # ops per chunk of a tail percentile (see chunked_percentile)
PROBES_PER_PAUSE = 5   # speed probes after every set-up and every block
# a median probe this many times off the reference marks the scaled
# figures unresolved: the machine, or the program between blocks, is not
# what the reference speed assumes
SPEED_TOLERANCE = 2.0

NAMESPACE_OPS = ("create", "stat", "rename", "remove")
LEVELS = ("linear", "multidim", "array")
# every end-to-end metric a workload can measure, with its unit
UNITS = {
    "setup_s": "s",
    **{f"{lv}_{k}_MiBps": "MiB/s" for lv in LEVELS for k in ("write", "read")},
    "write_MiBps": "MiB/s",
    "read_MiBps": "MiB/s",
    "data_op_p95_ms": "ms",
    **{f"{k}_per_s": "ops/s" for k in NAMESPACE_OPS},
    "meta_op_p99_ms": "ms",
    "ops_per_s": "ops/s",
    "failed_op_frac": "ratio",
    "peak_rss_MiB": "MiB",
}
# end-to-end metrics whose tracing overhead is reported (per-op timings)
OVERHEAD = {
    "write_MiBps": "higher",
    "read_MiBps": "higher",
    "ops_per_s": "higher",
    "data_op_p95_ms": "lower",
}


def import_program() -> None:
    """Put ``src/`` on the path, or fail when the checkout lacks it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
    if not SPEC.is_file():
        sys.exit(f"perfbench: {SPEC.name} not found at {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def chunked_percentile(values: list[float], q: float) -> float:
    """Median, over consecutive chunks of CHUNK_OPS values in op order,
    of each chunk's ``q``-th percentile.

    A stall of the shared machine for a few seconds fills the tail of
    the chunks it hits and leaves the others alone, so it moves this
    less than a percentile over the whole run; a tail the program
    itself adds to every chunk moves it fully.
    """
    n = max(1, len(values) // CHUNK_OPS)
    bounds = [len(values) * i // n for i in range(n + 1)]
    return statistics.median(
        percentile(values[lo:hi], q) for lo, hi in zip(bounds, bounds[1:])
    )


def e2e_metrics(records: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics of a list of op records, plus sample counts.

    A rate is the work (bytes or ops) of the ops selected divided by
    their summed wall time, leaving out the slowest TRIM of each op kind
    and file level (see TRIM).
    """
    out: dict[str, float] = {}
    samples: dict[str, int] = {}
    groups: dict[tuple[str, str], list[list]] = {}
    for r in sorted(records, key=lambda r: r[3]):
        groups.setdefault((r[0], r[1]), []).append(r)

    def rate(name: str, kinds, level=None, per_byte: bool = False) -> None:
        work = busy = count = 0
        for (kind, lv), rows in groups.items():
            if kind in kinds and level in (None, lv):
                kept = rows[:max(1, round(len(rows) * (1 - TRIM)))]
                work += sum(r[2] for r in kept) / MiB if per_byte else len(kept)
                busy += sum(r[3] for r in kept)
                count += len(rows)
        if count:
            out[name] = work / busy
            samples[name] = count

    for kind in ("write", "read"):
        rate(f"{kind}_MiBps", [kind], per_byte=True)
        for level in LEVELS:
            rate(f"{level}_{kind}_MiBps", [kind], level, per_byte=True)
    data = [r[3] * 1e3 for r in records if r[0] in ("read", "write")]
    if data:
        out["data_op_p95_ms"] = chunked_percentile(data, 95)
        samples["data_op_p95_ms"] = len(data)
    for kind in NAMESPACE_OPS:
        rate(f"{kind}_per_s", [kind])
    meta = [r[3] * 1e3 for r in records if r[0] in NAMESPACE_OPS]
    if meta:
        out["meta_op_p99_ms"] = percentile(meta, 99)
        samples["meta_op_p99_ms"] = len(meta)
    rate("ops_per_s", {kind for kind, _ in groups})
    return out, samples


def at_reference_speed(records: list[list], speed: dict[int, float]) -> list[list]:
    """The records with each op time scaled by its block's ``speed``."""
    return [[*r[:3], r[3] * speed[r[6]], *r[4:]] for r in records]


def overhead_pct(traced: dict, plain: dict) -> dict[str, float]:
    """How much worse tracing makes each per-op metric, in percent."""
    out = {}
    for name, better in OVERHEAD.items():
        t, u = traced.get(name), plain.get(name)
        if not t or not u:
            out[name] = 0.0
        elif better == "higher":
            out[name] = (u / t - 1.0) * 100.0
        else:
            out[name] = (t / u - 1.0) * 100.0
    return out


class Helper:
    """A helper process of one run (a script of this directory), asked
    one line at a time."""

    def __init__(self, script: str, *args: str) -> None:
        self.script = script
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, request: str = "") -> str:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"helper process {self.script} exited")
        return answer

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: bool, wrap_backend=None) -> dict:
    """Set up, drive and verify one workload; returns every number it measured."""
    import layers
    import workloads

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    cls = workloads.WORKLOADS[name]
    probe_ref_s = cls.probe_ref_s
    probes: list[float] = []
    setup_s: list[float] = []       # as measured
    setup_ref_s: list[float] = []   # each at the speed probed right after it
    speed: dict[int, float] = {}    # block -> probe_ref_s / probe right after it
    helpers: list[Helper] = []
    work = None
    # before any mount, helper or server starts, so that all inherit it
    cpus = os.sched_getaffinity(0)
    if cls.one_cpu:
        os.sched_setaffinity(0, {min(cpus)})

    def probe() -> float:
        """Median seconds of the speed probes of one pause."""
        kinds = "+".join(cls.probe_kinds)
        pause = [float(prober.ask(kinds)) for _ in range(PROBES_PER_PAUSE)]
        probes.extend(pause)
        return statistics.median(pause)

    def sample_setup(seconds: float) -> None:
        setup_s.append(seconds)
        setup_ref_s.append(seconds * probe_ref_s / probe())

    try:
        prober = Helper("probe.py", str(workdir))
        helpers.append(prober)
        for _ in range(SETUP_MIN_REPS):
            if work is not None:
                work.teardown()
            work = workloads.make(name, seed, workdir / f"setup{len(setup_s)}", wrap_backend)
            t0 = time.perf_counter()
            work.setup()
            sample_setup(time.perf_counter() - t0)
        spare = Helper("spare.py", name, str(seed), str(workdir / "spare"))
        helpers.append(spare)
        spare.ask()  # pays the helper's lazy imports; not a sample

        recorder = layers.SpanRecorder() if trace else None
        log = workloads.OpLog(recorder)
        counters: dict[str, float] = {}
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if index >= MIN_BLOCKS and elapsed >= seconds or elapsed >= HARD_STOP_S:
                break
            log.block = index
            log.traced = trace and index % 2 == 1
            if log.traced:
                before = layers.exported_counters(work.fs)
                tracer = layers.Layers(recorder)
                tracer.install(work.fs)
                try:
                    work.block(log, index)
                finally:
                    tracer.uninstall()
                after = layers.exported_counters(work.fs)
                for key, value in after.items():
                    counters[key] = counters.get(key, 0.0) + value - before.get(key, 0.0)
            else:
                work.block(log, index)
            speed[index] = probe_ref_s / probe()
            index += 1
            if sum(setup_s) < SETUP_SHARE * (time.perf_counter() - start):
                sample_setup(float(spare.ask()))
        measured_s = time.perf_counter() - start
        log.traced = False
        work.verify(log)
        summary = work.summary()
    finally:
        if work is not None:
            work.teardown()
        for helper in helpers:
            helper.close()
        workloads.remove_tree(workdir)
        os.sched_setaffinity(0, cpus)

    plain = [r for r in log.records if not r[5]]
    measured, _ = e2e_metrics(plain)
    metrics, samples = e2e_metrics(at_reference_speed(plain, speed))
    result = {"workload": name, "seed": seed, "blocks": index, "measured_s": measured_s}
    if trace:
        per_layer = layers.layer_metrics(recorder, counters)
        traced_ops = [r for r in log.records if r[5]]
        traced, _ = e2e_metrics(at_reference_speed(traced_ops, speed))
        for metric, pct in overhead_pct(traced, metrics).items():
            per_layer[f"overhead.{metric}"] = pct
        ratio = per_layer["trace.self_ratio"]
        log.check(
            f"self times sum to {ratio:.3f} of op wall time (must be within 10%)",
            lambda: abs(ratio - 1.0) <= 0.10,
        )
        result["per_layer"] = per_layer
    measured["setup_s"] = statistics.median(setup_s)
    metrics["setup_s"] = statistics.median(setup_ref_s)
    samples["setup_s"] = len(setup_s)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for m in (measured, metrics):
        m["failed_op_frac"] = log.failed / log.attempted
        m["peak_rss_MiB"] = peak_rss_mib
    probe_s = statistics.median(probes)
    result.update(
        attempted=log.attempted,
        failed=log.failed,
        failures=log.failures[:20],
        metrics=metrics,
        measured_metrics=measured,
        probe_ms=probe_s * 1e3,
        probe_ref_ms=probe_ref_s * 1e3,
        speed_resolved=1 / SPEED_TOLERANCE <= probe_ref_s / probe_s <= SPEED_TOLERANCE,
        samples=samples,
        summary=summary,
    )
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(result: dict, spec: dict) -> None:
    name = result["workload"]
    print(f"# {name}: seed {result['seed']}, {result['blocks']} blocks in "
          f"{result['measured_s']:.1f} s, {result['attempted']} ops and checks, "
          f"{result['failed']} failed")
    print(f"#   speed probe: median {result['probe_ms']:.3f} ms; time metrics below are "
          f"at {result['probe_ref_ms']:g} ms (as measured in parentheses)")
    if not result["speed_resolved"]:
        print(f"# WARNING: the probe is more than {SPEED_TOLERANCE:g}x off its "
              "reference; the scaled time metrics are unresolved, compare the "
              "measured ones")
    for key, value in result["summary"].items():
        print(f"#   {key} = {value}")
    for metric, unit in UNITS.items():
        if metric in result["metrics"]:
            n = result["samples"].get(metric)
            extra = f"  n={n}" if n else ""
            measured = result["measured_metrics"][metric]
            print(f"{name:12s} {metric:22s} {_fmt(result['metrics'][metric]):>12s} {unit:6s}"
                  f" ({_fmt(measured)}){extra}")
    if "per_layer" in result:
        for entry in spec["per_layer"]:
            value = result["per_layer"].get(entry["name"], 0.0)
            print(f"{name:12s} {entry['name']:34s} {_fmt(value):>12s} {entry['unit']}")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}", file=sys.stderr)


def contract_line(result: dict, spec: dict, trace: bool) -> dict:
    """The last output line: the metrics BENCHMARK.json names, with units."""
    source = result["per_layer"] if trace else result["metrics"]
    metrics = {}
    correct = result["failed"] == 0
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value = source.get(entry["name"])
        if value is None:
            if not trace:
                correct = False
                result["failures"].append(f"metric {entry['name']} not measured")
                continue
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, each in its own process; one table of every metric."""
    names = [w["name"] for w in spec["workloads"]]
    details, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            if line.startswith("# detail "):
                details[name] = json.loads(line[len("# detail "):])
            else:
                print(line)
        last = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 1}
        correct = correct and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
    print("# all workloads")
    print("# " + "metric".ljust(22) + "".join(n.rjust(13) for n in names) + "  unit")
    merged = {}
    for metric, unit in UNITS.items():
        cells = []
        for name in names:
            value = details.get(name, {}).get("metrics", {}).get(metric)
            cells.append("-" if value is None else _fmt(value))
            if value is not None:
                merged[f"{name}.{metric}"] = {"value": value, "unit": unit}
        print("  " + metric.ljust(22) + "".join(c.rjust(13) for c in cells) + f"  {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    spec = json.loads(SPEC.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = contract_line(result, spec, bool(args.trace))
    print_table(result, spec)
    print("# detail " + json.dumps(result))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
