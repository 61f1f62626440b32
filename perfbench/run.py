#!/usr/bin/env python3
"""The boolminor benchmark: exhaustive `verify` sweeps, end to end and per layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {poset,hypergraphs,graphs} \
        [--seed N] [--seconds S] [--trace {0,1}]

A workload is a fixed sequence of steps.  Each step runs in a fresh process:
either ``python3 -m boolminor.cli verify ...`` or ``perfbench/labeled7.py``,
a driver of the public ``graphs`` classifiers.  One driver (this script)
runs the steps in a closed loop: each step starts when the previous one has
ended, and one pass of the sequence follows another until ``--seconds`` is
spent (at least one pass).  Why each workload exists, and what it should
and should not move, is in ``perfbench/README.md``.

``--seed`` picks the inputs: benchmark seed N passes ``--seed 271828+N`` to
the sampled sweeps and draws the labeled7 graphs from N.  Seed 0 is the
program's default seed, at which every step's stdout must match the sha256
recorded in ``perfbench/reference.json``; at any seed, steps that take no
seed must match it too, and every step's stdout must be byte-identical on
every repeat.  A nonzero exit, a missing final ``ok`` line or a digest
mismatch fails the step.

``--trace 0`` prints the end-to-end metrics (medians over passes):
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of a pass, from ``wait4`` rusage,
so pool workers count; and ``setup_s``, the median over several repeats of
a fresh-process import of ``boolminor.cli`` plus parser build plus the
workload's input generation.  Times are in reference seconds: every process
of the run is pinned to one CPU, and ``perfbench/calibrator.py`` samples
that CPU's speed beside the steps (see REFERENCE_KERNEL_S).  ``--trace 1``
runs one untraced pass and one pass under ``perfbench/tracer.py``, both at
one worker, and prints the per-layer metrics, in measured seconds.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a step
failed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from tracer import TRACED  # noqa: E402

# verify.DEFAULT_SEED of the program; benchmark seed 0 maps onto it
PROGRAM_SEED = 271828
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 7
# On a shared host the speed of a CPU drifts by up to 60%, more than the
# regressions the benchmark must catch.  End-to-end times are therefore in
# reference seconds: measured seconds times REFERENCE_KERNEL_S over the mean
# CPU time of calibrator.py's kernel, sampled on the same CPU during the
# measurement.  A mean, not a median, because a step pays for the host's
# slow bursts too; the top and bottom TRIM of the samples are dropped.
REFERENCE_KERNEL_S = 0.001
TRIM = 0.1
LABELED7_GRAPHS = 1 << 18
LABELED7_PAIRS = 21

# (step name, entry, arguments); "{seed}", "{cache}", "{masks}" and
# "{workers}" are filled in per pass
WORKLOADS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "poset": [
        ("gap", "cli", ("verify", "gap", "--workers", "1")),
        ("poset-cold", "cli", ("verify", "poset", "--cache", "{cache}", "--seed", "{seed}")),
        ("poset-warm", "cli", ("verify", "poset", "--cache", "{cache}", "--seed", "{seed}")),
    ],
    "hypergraphs": [
        ("steiner", "cli", ("verify", "steiner")),
        (
            "keylemma",
            "cli",
            ("verify", "keylemma", "--samples", "1000", "--workers", "1", "--seed", "{seed}"),
        ),
        (
            "correspondence",
            "cli",
            ("verify", "correspondence", "--samples", "1000", "--workers", "1", "--seed", "{seed}"),
        ),
    ],
    "graphs": [
        (
            "graphs6",
            "cli",
            ("verify", "graphs", "--max-vertices", "6", "--workers", "{workers}", "--seed", "{seed}"),
        ),
        ("labeled7", "labeled7", ("{masks}",)),
    ],
}
WORKERS = {"poset": 1, "hypergraphs": 1, "graphs": 2}
ALL_STEPS = [name for steps in WORKLOADS.values() for name, _, _ in steps]


@dataclass
class StepRun:
    name: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes
    start: float  # perf_counter() at spawn
    scale: float = 1.0  # reference seconds per measured second

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


class Checker:
    """Output checks for every step run of one benchmark run."""

    def __init__(self, seed: int, reference: dict[str, str]):
        self.seed = seed
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, step: StepRun, seeded: bool) -> bool:
        self.attempted += 1
        problems = []
        if step.returncode != 0:
            problems.append(f"exit code {step.returncode}")
        lines = step.stdout.decode("utf-8", "replace").splitlines()
        if not lines or lines[-1] != "ok":
            problems.append("stdout does not end with 'ok'")
        digest = step.digest
        if self.seed == 0 or not seeded:
            expected = self.reference.get(step.name)
            if expected is None:
                problems.append("no reference digest")
            elif digest != expected:
                problems.append(f"sha256 {digest} differs from the reference {expected}")
        # poset-warm reads what poset-cold computed: same bytes
        key = "poset" if step.name.startswith("poset-") else step.name
        previous = self.seen.setdefault(key, digest)
        if digest != previous:
            problems.append(f"sha256 {digest} differs from an earlier repeat {previous}")
        if problems:
            self.failed += 1
            tail = step.stderr.decode("utf-8", "replace")[-2000:]
            print(f"step {step.name} FAILED: {'; '.join(problems)}\n{tail}", file=sys.stderr)
            return False
        return True


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(name: str, argv: list[str], cwd: Path, env: dict, deadline: float) -> StepRun:
    """Run argv to completion; wall, CPU and max RSS include reaped children."""
    out_path = cwd / f"{name}.stdout"
    err_path = cwd / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(max(deadline - start, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the step left behind in its group
    return StepRun(
        name=name,
        start=start,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


class Calibrator:
    """calibrator.py running beside the steps on the same CPU for a whole run."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrator.py")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[tuple[float, float]] = []
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the calibrator did not start")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode == 0:
            self.samples = [tuple(pair) for pair in json.loads(out)]

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]."""
        inside = sorted(dt for t, dt in self.samples if start <= t <= end)
        if not inside:
            raise RuntimeError("no calibration sample inside a measurement")
        cut = int(len(inside) * TRIM)
        return REFERENCE_KERNEL_S / statistics.fmean(inside[cut : len(inside) - cut])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BOOLMINOR_WORKERS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_inputs(workload: str, seed: int, tmp: Path) -> None:
    """The workload's generated inputs; the same seed writes the same bytes."""
    if workload != "graphs":
        return
    rng = random.Random(f"boolminor-bench:{seed}:labeled7")
    masks = array("I", (rng.getrandbits(LABELED7_PAIRS) for _ in range(LABELED7_GRAPHS)))
    (tmp / "labeled7.masks").write_bytes(masks.tobytes())


def measure_setup(workload: str, seed: int, tmp: Path, env: dict, deadline: float) -> tuple[float, float, float]:
    """Median set-up time over SETUP_REPEATS, and the interval the repeats span."""
    probe = [sys.executable, "-c", "import boolminor.cli as cli; cli.build_parser()"]
    first = time.perf_counter()
    samples = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        run = run_process(f"setup{i}", probe, tmp, env, deadline)
        if run.returncode != 0:
            raise RuntimeError("importing boolminor.cli failed:\n" + run.stderr.decode("utf-8", "replace"))
        make_inputs(workload, seed, tmp)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), first, time.perf_counter()


def step_argv(entry: str, args: tuple[str, ...], fill: dict, spans: Path | None) -> list[str]:
    filled = [a.format(**fill) for a in args]
    if spans is not None:
        return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), entry, *filled]
    if entry == "cli":
        return [sys.executable, "-m", "boolminor.cli", *filled]
    return [sys.executable, str(BENCH_DIR / "labeled7.py"), *filled]


def run_pass(workload, seed, workers, tmp, env, deadline, checker, traced=False):
    """One closed-loop pass over the workload's steps in a fresh directory."""
    tmp.mkdir(parents=True)
    fill = {
        "seed": str(PROGRAM_SEED + seed),
        "cache": str(tmp / "poset-cache.txt"),
        "masks": str(tmp.parent / "labeled7.masks"),
        "workers": str(workers),
    }
    runs = []
    spans = {}
    for name, entry, args in WORKLOADS[workload]:
        span_path = tmp / f"{name}.spans.json" if traced else None
        run = run_process(name, step_argv(entry, args, fill, span_path), tmp, env, deadline)
        seeded = any("{seed}" in a or "{masks}" in a for a in args)
        ok = checker.check(run, seeded)
        if ok and name == "poset-cold" and not (tmp / "poset-cache.txt").is_file():
            print("step poset-cold FAILED: no cache file written", file=sys.stderr)
            checker.failed += 1
            ok = False
        runs.append(run)
        if traced and ok:
            spans[name] = json.loads(span_path.read_text(encoding="utf-8"))
        if not ok:
            break
    return runs, spans


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[list[StepRun]], setup_s: float, scaled: bool = True) -> dict:
    """Medians over passes; times in reference seconds unless scaled is False."""

    def scale(r: StepRun) -> float:
        return r.scale if scaled else 1.0

    walls = [sum(r.wall_s * scale(r) for r in p) for p in passes]
    cpus = [sum(r.cpu_s * scale(r) for r in p) for p in passes]
    rss = [max(r.maxrss_kb for r in p) / 1024 for p in passes]
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def _function_stats(spans: dict[str, dict]) -> dict[str, dict[str, float]]:
    """calls, total and self time per traced function over all steps.

    A function's total time counts only its outermost calls, so recursion
    is not counted twice.
    """
    stats: dict[str, dict[str, float]] = {}
    for doc in spans.values():
        nodes = {n["id"]: n for n in doc["nodes"]}
        for n in doc["nodes"]:
            s = stats.setdefault(n["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += n["calls"]
            s["self_s"] += n["self_s"]
            parent = n["parent"]
            nested = False
            while parent:
                if nodes[parent]["name"] == n["name"]:
                    nested = True
                    break
                parent = nodes[parent]["parent"]
            if not nested:
                s["total_s"] += n["total_s"]
    return stats


def _layer_self(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed per module (the span name's first component)."""
    by_layer: dict[str, float] = {}
    for name, s in stats.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s["self_s"]
    return by_layer


def per_layer(untraced: list[StepRun], traced: list[StepRun], spans: dict[str, dict]) -> dict:
    stats = _function_stats(spans)
    counters: dict[str, float] = {}
    for doc in spans.values():
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def fn(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    out: dict[str, dict] = {}
    for layer, names in TRACED.items():
        for name in names:
            span = f"{layer}.{name}"
            if layer in ("verify", "cli"):
                fields = ("self_s",)
            elif span == "poset.enumerate_classes":
                fields = ("total_s", "self_s")
            else:
                fields = ("calls", "total_s", "self_s")
            for field in fields:
                out[f"{span}.{field}"] = metric(fn(span, field), units[field])
    out["labeled7.main.self_s"] = metric(fn("labeled7.main", "self_s"), "s")

    hits, misses = counters.get("canon_cache.hits", 0), counters.get("canon_cache.misses", 0)
    out["bfcore.is_minor.witness_ratio"] = metric(
        ratio(counters.get("is_minor.witnesses", 0), fn("bfcore.is_minor", "calls")), "ratio"
    )
    out["bfcore.canon_cache.hits"] = metric(hits, "count")
    out["bfcore.canon_cache.misses"] = metric(misses, "count")
    out["bfcore.canon_cache.hit_ratio"] = metric(ratio(hits, hits + misses), "ratio")
    out["poset.enumerate_classes.cache_served"] = metric(
        counters.get("enumerate_classes.cache_served", 0), "count"
    )
    out["hypergraph.automorphisms.elements"] = metric(counters.get("automorphisms.elements", 0), "count")
    out["hypergraph.is_isomorphic.found_ratio"] = metric(
        ratio(counters.get("is_isomorphic.found", 0), fn("hypergraph.is_isomorphic", "calls")), "ratio"
    )
    out["graphs.neighborhoods.per_graph"] = metric(
        ratio(fn("graphs.neighborhoods", "calls"), fn("graphs.classify_join_irreducible", "calls")),
        "calls/graph",
    )

    untraced_wall = {r.name: r.wall_s for r in untraced}
    for name in ALL_STEPS:
        out[f"step.{name}.wall_s"] = metric(untraced_wall.get(name, 0.0), "s")
    for name in ALL_STEPS:
        misses_in_step = spans[name]["counters"]["canon_cache.misses"] if name in spans else 0
        out[f"step.{name}.canon_misses"] = metric(misses_in_step, "count")

    layer_self = _layer_self(stats)
    for layer in TRACED:
        out[f"layer.{layer}.self_s"] = metric(layer_self.get(layer, 0.0), "s")

    traced_self = sum(s["self_s"] for s in stats.values())
    traced_wall = sum(r.wall_s for r in traced)
    out["trace.overhead_s"] = metric(traced_wall - sum(untraced_wall.values()), "s")
    out["trace.residue_s"] = metric(traced_wall - traced_self, "s")
    return out


def print_trace_table(traced: list[StepRun], spans: dict[str, dict]) -> None:
    for run in traced:
        by_layer = _layer_self(_function_stats({run.name: spans[run.name]}))
        covered = sum(by_layer.values())
        layers = " ".join(f"{k}={v:.3f}" for k, v in sorted(by_layer.items()))
        print(
            f"traced {run.name}: wall {run.wall_s:.3f} s = layer self {covered:.3f} s"
            f" + residue {run.wall_s - covered:.3f} s ({layers})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "boolminor" / "cli.py").is_file():
        print(f"error: the boolminor sources are missing under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    if reference["program_seed"] != PROGRAM_SEED:
        print("error: reference.json was captured at another program seed", file=sys.stderr)
        return 2
    checker = Checker(args.seed, reference["stdout_sha256"])
    env = child_env()
    # Every process of the run, the calibrator included, shares one CPU, so
    # the calibrator samples the speed the steps get.  graphs6's two pool
    # workers time-share that CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    calibrator = Calibrator()
    try:
        raw_setup_s, setup_start, setup_end = measure_setup(args.workload, args.seed, tmp, env, deadline)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            untraced, _ = run_pass(args.workload, args.seed, 1, tmp / "untraced", env, deadline, checker)
            traced, spans = run_pass(
                args.workload, args.seed, 1, tmp / "traced", env, deadline, checker, traced=True
            )
            passes = [untraced, traced]
        else:
            passes = []
            started = time.perf_counter()
            while True:
                runs, _ = run_pass(
                    args.workload, args.seed, WORKERS[args.workload],
                    tmp / f"pass{len(passes)}", env, deadline, checker,
                )
                passes.append(runs)
                now = time.perf_counter()
                per_pass = (now - started) / len(passes)
                if checker.failed or now - started + per_pass > args.seconds or now + per_pass > deadline:
                    break
    finally:
        calibrator.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    setup_s = raw_setup_s * calibrator.scale(setup_start, setup_end)
    for i, runs in enumerate(passes):
        for r in runs:
            r.scale = calibrator.scale(r.start, r.start + r.wall_s)
            print(
                f"pass {i} step {r.name}: wall {r.wall_s:.3f} s cpu {r.cpu_s:.3f} s"
                f" maxrss {r.maxrss_kb / 1024:.1f} MB scale {r.scale:.3f} sha256 {r.digest[:16]}"
            )
    if args.trace:
        metrics = per_layer(untraced, traced, spans) if not checker.failed else {}
        if metrics:
            print_trace_table(traced, spans)
    else:
        metrics = end_to_end(passes, setup_s)
        for name, m in end_to_end(passes, raw_setup_s, scaled=False).items():
            if m["unit"] == "s":
                print(f"measured {name} {m['value']:.6g} s")
    error_rate = checker.failed / checker.attempted
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {error_rate:.6g} ratio ({checker.failed} of {checker.attempted} steps failed)")
    correct = checker.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
