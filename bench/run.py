"""Benchmark of the wmpower CLI: seeded workloads, checked outputs, end-to-end metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload tables-small|index-ladder|merge-axioms
                         --seed N --seconds S --trace 0|1

Load model: a closed loop with one client. Each op is one fresh
``python -m wmpower.cli ...`` process, started after the previous one has
exited and killed at OP_LIMIT_S. A pass runs every op of the workload once,
in an order shuffled by the seed; passes repeat while another fits in
--seconds (at least one runs).

--trace 0 reports the end-to-end metrics. Their times are scaled to a nominal
host speed: after each op the benchmark times calibrate(), a fixed workload
of its own, and divides the op's latency and CPU time by its slowdown, the
median calibrate() time of the ops from CALIBRATION_WINDOW before it to
CALIBRATION_WINDOW after it, over CALIBRATION_S, to the power
SLOWDOWN_EXPONENT. Shared hosts switch between
speeds that differ by up to 60% within seconds; the scaling keeps most of
that out of the comparison between runs. Each set-up is scaled by the
calibrate() runs taken before, during and after it. Unscaled values are
recorded beside the result. The benchmark and its children are pinned to one
CPU, the one calibrate() times.

--trace 1 runs one plain pass and one traced pass, where each op runs
bench/traced_cli.py (the CLI's own main with spans around the wmpower calls)
instead of the CLI, and reports per-layer self times
(unscaled) and counts from its spans. The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spawn
from check import check
from oracle import load_test_oracles
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
OP_LIMIT_S = 10.0  # over twice the slowest op, Banzhaf at n = 14 (about 3.5 s on a slow host)
PASS_LIMIT_S = 120.0  # ops left when a pass overruns this count as timed out
SETUPS = 3
SETUP_CALIBRATIONS = 5  # calibrate() runs before and after each set-up
CALIBRATION_S = 0.003  # nominal duration of calibrate(); see the module docstring
# Five calibrations per op follow speed changes that last a few ops, while a
# single 3 ms calibration is off by about 10%.
CALIBRATION_WINDOW = 2
# Op times move a little less than calibrate() does when the host's speed
# changes, start-up bound ops less than compute-bound ones. Of the exponents
# 0.7-1.0 tried on 32 runs of the three workloads, 0.9 gave the smallest
# largest run-to-run spread.
SLOWDOWN_EXPONENT = 0.9
REQUIRED = ("src/wmpower/cli.py", "tests/oracles.py")


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python workload (rational and integer arithmetic)."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    count = 0
    for i in range(20000):
        count += i * i % 7
    return time.perf_counter() - start


class Pass:
    """Outcome of running every op once."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.latencies_ms: list[float] = []
        self.cpu_s: list[float] = []  # per op: user plus system CPU of the child
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: dict[int, str] = {}  # op index -> why it failed
        self.timed_out: list[str] = []
        self.stdout: dict[int, str] = {}  # op index -> its standard output
        self.spans: list[dict] = []  # per traced op: its index, wall time and spans
        self.cells: dict[str, list[float]] = {}  # cell -> op latencies in ms
        self.calibration_s: list[float] = []  # one calibrate() after each op

    def op_slowdowns(self) -> list[float]:
        """Per op, how much slower than nominal the host ran around it, as a divisor for its times."""
        w = CALIBRATION_WINDOW
        return [slowdown(self.calibration_s[max(0, k - w) : k + w + 1]) for k in range(len(self.calibration_s))]

    def scaled_latencies_ms(self) -> list[float]:
        return [ms / f for ms, f in zip(self.latencies_ms, self.op_slowdowns())]

    def scaled_cpu_s(self) -> float:
        return sum(s / f for s, f in zip(self.cpu_s, self.op_slowdowns()))

    @property
    def slowdown(self) -> float:
        """The pass's slowdown: its op time over its scaled op time."""
        scaled = sum(self.scaled_latencies_ms())
        return sum(self.latencies_ms) / scaled if scaled else 1.0


def slowdown(calibration_s: list[float]) -> float:
    """How much slower than nominal the host ran during these calibrations."""
    return (statistics.median(calibration_s) / CALIBRATION_S) ** SLOWDOWN_EXPONENT


def run_pass(ops, env, work: Path, traced: bool = False) -> Pass:
    result = Pass()
    spans_file = work / "spans.json"
    start = time.perf_counter()
    result.attempted = len(ops)
    for k, op in enumerate(ops):
        if time.perf_counter() - start > PASS_LIMIT_S:
            result.timed_out.append(op.cell)
            result.failures[k] = f"{op.cell}: not run, the pass is over its time limit"
            continue
        if traced:
            argv = [spawn.PYTHON, str(BENCH / "traced_cli.py"), str(spans_file), *op.argv]
        else:
            argv = [spawn.PYTHON, "-m", "wmpower.cli", *op.argv]
        r = spawn.run(argv, env, OP_LIMIT_S, work)
        reason = check(op, r.exit_code, r.stdout, r.stderr)
        if reason:
            result.failures[k] = f"{op.cell}: {' '.join(op.argv)[:100]}: {reason}"
        if r.exit_code is None:
            result.timed_out.append(op.cell)
        result.latencies_ms.append(r.wall_s * 1e3)
        result.cpu_s.append(r.cpu_s)
        result.peak_rss_mb = max(result.peak_rss_mb, r.max_rss_mb)
        result.stdout[k] = r.stdout
        result.cells.setdefault(op.cell, []).append(round(r.wall_s * 1e3, 3))
        result.calibration_s.append(calibrate())
        if traced:
            spans = json.loads(spans_file.read_text()) if spans_file.exists() else []
            spans_file.unlink(missing_ok=True)
            result.spans.append({"op": k, "wall_ms": r.wall_s * 1e3, "spans": spans})
    result.wall_s = time.perf_counter() - start - sum(result.calibration_s)
    return result


def setup(workload: str, seed: int, env, oracles):
    """Write the inputs, compute the references and warm up each command kind once.

    The warm-up takes the first (smallest) op of each kind. The pass order is
    then shuffled by the seed, so that each latency percentile draws on ops
    spread over the whole pass rather than on one stretch of it.

    Returns the ops, their directory, the warm-up pass, the set-up time and
    the slowdown measured by calibrate() before, during and after the set-up
    (calibration time is not counted in the set-up time).
    """
    calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    work = WORK / workload
    # Documents are overwritten in place: deleting and recreating hundreds of
    # files per set-up made set-up time creep up from run to run on a disk
    # mounted with online discard.
    work.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](seed, work, ROOT, oracles)
    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.kind, op)
    warmup = run_pass(list(first_of_kind.values()), env, work)
    random.Random(seed).shuffle(ops)
    seconds = time.perf_counter() - start - sum(warmup.calibration_s)
    calibrations += warmup.calibration_s + [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return ops, work, warmup, seconds, slowdown(calibrations)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its direct children, in seconds."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return [t / 1e9 for t in own]


# per-layer metric -> span name. "_s" metrics are total self time over the
# traced pass, "_ms" metrics the median self time per call.
LAYER_TIMES = {
    "cli.parse_args_ms": "cli.parse_args",
    "documents.load_game_ms": "documents.load_game",
    "games.mwc_s": "games.mwc",
    "games.simple_game_build_s": "probe.simple_game_build",
    **{f"indices.{k}_s": f"indices.{k}" for k in ("ss", "bz", "dp", "pg", "cm", "hcm")},
    "merging.check_mergeable_s": "merging.check_mergeable",
    "merging.check_nonmergeable_s": "merging.check_nonmergeable",
    **{
        f"axioms.check_{a}_s": f"axioms.check_{a}"
        for a in ("eff", "np", "sym", "symw", "tra", "dpm", "pgm", "dpmw", "hcmw")
    },
    "sampling.random_weighted_game_s": "sampling.random_weighted_game",
    "tables.render_table_ms": "tables.render_table",
}


def layer_metrics(plain: Pass, traced: Pass) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, and the call count of every span name."""
    calls: dict[str, list[float]] = {}
    counts = {"games.mwc_emitted": 0, "indices.bz_win_tests": 0, "merging.union_mwc": 0, "merging.component_mwc": 0}
    startup_ms = []
    probe_ns = 0
    for op in traced.spans:
        spans = op["spans"]
        if not spans:
            continue
        own = self_times(spans)
        for span, seconds in zip(spans, own):
            calls.setdefault(span["name"], []).append(seconds)
            counts["games.mwc_emitted"] += span.get("emitted", 0)
            if span["name"] == "indices.bz":
                counts["indices.bz_win_tests"] += span["players"] << span["players"]
            counts["merging.union_mwc"] += span.get("union_mwc", 0)
            counts["merging.component_mwc"] += span.get("component_mwc", 0)
        probes = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("probe."))
        probe_ns += probes
        startup_ms.append(op["wall_ms"] - (spans[0]["end"] - spans[0]["start"] + probes) / 1e6)
    metrics = {"cli.startup_ms": (statistics.median(startup_ms) if startup_ms else 0.0, "ms")}
    for metric, name in LAYER_TIMES.items():
        values = calls.get(name, [])
        if metric.endswith("_ms"):
            metrics[metric] = (statistics.median(values) * 1e3 if values else 0.0, "ms")
        else:
            metrics[metric] = (sum(values), "s")
        metrics[metric.rsplit("_", 1)[0] + "_calls"] = (len(values), "count")
    for metric, value in counts.items():
        metrics[metric] = (value, "count")
    plain_s = plain.wall_s / plain.slowdown
    overhead = ((traced.wall_s - probe_ns / 1e9) / traced.slowdown - plain_s) / plain_s * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics, {name: len(v) for name, v in calls.items()}


def machine_info(args) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "op_limit_s": OP_LIMIT_S,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a wmpower checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # The benchmark and its children run on one CPU, so calibrate() times the
    # CPU the ops run on; on a shared host each CPU drifts in speed on its own.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = spawn.python_env(ROOT)
    oracles = load_test_oracles(ROOT)
    info = machine_info(args)

    if args.trace:
        ops, work, warmup, _, _ = setup(args.workload, args.seed, env, oracles)
        plain = run_pass(ops, env, work)
        traced = run_pass(ops, env, work, traced=True)
        passes = [warmup, plain, traced]
        for k, traced_out in traced.stdout.items():
            if plain.stdout.get(k) != traced_out:
                traced.failures.setdefault(k, f"{ops[k].cell}: traced_cli.py's stdout differs from the CLI's")
        metrics, span_calls = layer_metrics(plain, traced)
        info["samples"] = {"span_calls": span_calls, "ops": len(traced.spans)}
        (WORK / f"spans-{args.workload}.json").write_text(json.dumps(traced.spans))
    else:
        setups = [setup(args.workload, args.seed, env, oracles) for _ in range(SETUPS)]
        ops, work = setups[-1][0], setups[-1][1]
        passes = [s[2] for s in setups]
        timed = []
        start = time.perf_counter()
        while True:
            timed.append(run_pass(ops, env, work))
            if time.perf_counter() - start + timed[-1].wall_s > args.seconds:
                break
        passes += timed
        latencies = [ms for p in timed for ms in p.scaled_latencies_ms()]
        metrics = {
            "setup_s": (statistics.median(s[3] / s[4] for s in setups), "s"),
            "wall_s": (statistics.median(p.wall_s / p.slowdown for p in timed), "s"),
            "cpu_s": (statistics.median(p.scaled_cpu_s() for p in timed), "s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1], "ms"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in timed), "MB"),
        }
        raw = [ms for p in timed for ms in p.latencies_ms]
        info["slowdown"] = {"setup": [s[4] for s in setups], "passes": [p.slowdown for p in timed]}
        info["unscaled"] = {
            "setup_s": statistics.median(s[3] for s in setups),
            "wall_s": statistics.median(p.wall_s for p in timed),
            "cpu_s": statistics.median(sum(p.cpu_s) for p in timed),
            "op_p50_ms": statistics.median(raw),
            "op_p90_ms": statistics.quantiles(raw, n=10)[-1],
        }
        info["samples"] = {
            "setup_s": len(setups),
            "wall_s": len(timed),
            "cpu_s": len(timed),
            "op_p50_ms": len(latencies),
            "op_p90_ms": len(latencies),
            "peak_rss_mb": len(timed),
        }
        info["ops_per_pass"] = len(ops)
        info["cell_p50_ms"] = {
            cell: statistics.median(ms for p in timed for ms in p.cells.get(cell, [])) for cell in timed[0].cells
        }

    failures = [why for p in passes for why in p.failures.values()]
    info["timed_out"] = sorted({cell for p in passes for cell in p.timed_out})
    info["failures"] = failures[:20]
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.4f} {unit}")
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps({**result, "info": info}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
