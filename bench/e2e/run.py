#!/usr/bin/env python3
"""End-to-end benchmark: paper training cells timed through bcl_run.

Each workload is one Figure cell at the paper's n = 10, run as a closed
loop (a learning round starts only when the previous one has finished) by
a single bcl_run child process at a time.  A run of a workload builds
bcl_run from source into .bench_build/, warms the machine up with one
unmeasured cell, then runs the workload's cells, one per derived seed, and
repeats that cycle while another whole cycle fits in --seconds.  The
metric names, units and regression bounds live in BENCHMARK.json at the
repository root; this file computes them.

  # one workload at one trace level, the JSON result on the last line
  python3 bench/e2e/run.py --workload dec-boxgeom-sync --seed 11 \
      --seconds 28 --trace 0

  # every workload: --repeat untraced runs plus one traced run, tables on
  # stdout, per-run values with medians and quartiles in BENCH_e2e.json
  python3 bench/e2e/run.py --seed 11 --repeat 5 --out BENCH_e2e.json

  # better / worse / same / unresolved per (metric, workload) pair
  python3 bench/e2e/run.py --compare parent.json change.json

--trace 0 measures the end-to-end metrics with the flight recorder off.
--trace 1 runs every cell twice, untraced and at trace=spans, checks that
the two agree bit for bit, and derives the per-layer metrics from the
traced cell's spans.  Any failed correctness check makes the run exit 1.
Stdlib only.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = BUILD_DIR / "e2e"

# Three pool workers plus the trainer thread fill a 4-core machine without
# oversubscribing it; fewer on smaller machines.
THREADS = max(0, min(3, (os.cpu_count() or 1) - 1))
CELL_TIMEOUT_S = 120.0


class Workload:
    """One paper cell.  `cells` seeds are derived from --seed so that every
    run averages over several training trajectories: round cost and
    accuracy differ from seed to seed by up to 25%, the pooled values by
    much less.
    `target` is the accuracy time_to_target_s waits for; `floor` is what
    the best accuracy, averaged over the run's seeds, must reach for the
    run to count as correct (chance is 0.1)."""

    def __init__(self, spec, cells, target, floor):
        self.spec = spec
        self.cells = cells
        self.target = target
        self.floor = floor
        self.rounds = int(re.search(r"\brounds=(\d+)", spec).group(1))

    def seeds(self, seed):
        return [seed + 1000 * i for i in range(self.cells)]


# Every cycle (cells x rounds) holds at least 100 rounds, so round_ms_p90
# has ten samples beyond it even in a run of one cycle.
WORKLOADS = {
    "cen-boxgeom-full": Workload(
        "topology=centralized model=mlp scale=full het=extreme f=1 "
        "rule=BOX-GEOM attack=sign-flip rounds=18",
        cells=6, target=0.6, floor=0.5),
    "cen-cifar-mkrum": Workload(
        "topology=centralized model=cifarnet scale=reduced het=mild f=1 "
        "rule=MULTIKRUM-3 attack=sign-flip rounds=60",
        cells=4, target=0.15, floor=0.12),
    "dec-boxgeom-sync": Workload(
        "topology=decentralized model=mlp scale=reduced het=mild f=1 "
        "rule=BOX-GEOM attack=sign-flip rounds=200",
        cells=4, target=0.95, floor=0.9),
    "dec-boxgeom-async": Workload(
        "topology=decentralized model=mlp scale=reduced het=mild f=2 "
        "rule=BOX-GEOM attack=sign-flip "
        "net=async:delay=exp,mean=2,timeout=50 rounds=17",
        cells=10, target=0.25, floor=0.2),
}

# Reported next to the gated end-to-end metrics but not gated, because
# they move with the seed more than any bound allows: best accuracy spans
# 0.14-0.23 across seeds on cen-cifar-mkrum and the round a seed first
# reaches its target varies fourfold.  Accuracy is held instead by the
# workload's floor and the bit-for-bit replay checks.  fail_ratio is 0
# whenever the run is correct; round_samples is the sample count behind
# round_ms_p50 and round_ms_p90.
REPORT_ONLY = {"best_acc": "ratio", "time_to_target_s": "s",
               "fail_ratio": "ratio", "round_samples": "count"}


class BenchError(Exception):
    """A failure that stops the run before any result is printed."""


# --- statistics --------------------------------------------------------------


def percentile(samples, q):
    """Linear-interpolated q-quantile, or None unless at least ten samples
    lie beyond it (the highest percentile a sample count supports)."""
    if not samples or len(samples) * (1.0 - q) < 10 - 1e-9:
        return None
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rounds_to_target(accuracies, target):
    """Index of the first round whose accuracy reaches target, or None."""
    for i, accuracy in enumerate(accuracies):
        if accuracy >= target:
            return i
    return None


# --- building and provenance ---------------------------------------------


def build():
    """Configure and build bcl_run (Release) into .bench_build/."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no CMake project at {ROOT}: run from a checkout")
    for command in (
        ["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release", "-DBCL_BUILD_TESTS=OFF",
         "-DBCL_BUILD_EXAMPLES=OFF", "-DBCL_BUILD_BENCH=OFF"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "bcl_run",
         "-j", str(os.cpu_count() or 1)],
    ):
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(command)}")
    build_type = cmake_cache_value(BUILD_DIR / "CMakeCache.txt",
                                   "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing to time a {build_type or 'untyped'} "
                         "build; reconfigure .bench_build as Release")
    return BUILD_DIR / "bcl_run", build_type


def cmake_cache_value(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def git_commit():
    """HEAD of the checkout, read from .git without running git (a plain
    source tree has no .git and reports "unknown")."""
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
    return "unknown"


def provenance(seed, build_type):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "threads": THREADS,
            "commit": git_commit(), "seed": seed, "build_type": build_type,
            "python": sys.version.split()[0]}


# --- one cell ---------------------------------------------------------------


def watch_cell(child, start, stop, peak_kb):
    """Samples the child's VmHWM every 10 ms into peak_kb[0] until `stop`
    is set, and kills the child after CELL_TIMEOUT_S.  wait4's ru_maxrss
    cannot serve: Linux carries the forking process's high-water mark
    across exec, so on the small decentralized cells it reports this
    driver's RSS instead of bcl_run's."""
    status_path = f"/proc/{child.pid}/status"
    while not stop.wait(0.01):
        if time.perf_counter() - start > CELL_TIMEOUT_S:
            child.kill()
        try:
            with open(status_path, encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb[0] = max(peak_kb[0], int(line.split()[1]))
        except (OSError, ValueError):
            pass


def run_cell(binary, spec, seed, traced):
    """Runs one bcl_run child to completion and returns what it left:
    wall seconds, peak RSS (KiB), exit code, stderr, the artifact entry and,
    when traced, the trace events."""
    cell_dir = WORK_DIR / ("traced" if traced else "plain")
    shutil.rmtree(cell_dir, ignore_errors=True)
    cell_dir.mkdir(parents=True)
    artifact = cell_dir / "cell.json"
    scenario = f"{spec} seed={seed}" + (" trace=spans" if traced else "")
    command = [str(binary), "--scenario", scenario, "--threads", str(THREADS),
               "--json", str(artifact)]
    if traced:
        command += ["--trace-dir", str(cell_dir)]
    with open(cell_dir / "stderr.txt", "w+", encoding="utf-8") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                 stderr=stderr, cwd=cell_dir)
        stop = threading.Event()
        peak_kb = [0]
        watcher = threading.Thread(target=watch_cell,
                                   args=(child, start, stop, peak_kb))
        watcher.start()
        try:
            # A blocking wait: Popen.wait(timeout=...) polls, which would
            # add up to 50 ms to the wall time.
            child.wait()
            wall = time.perf_counter() - start
        finally:
            stop.set()
            watcher.join()
            if child.returncode is None:
                child.kill()
                child.wait()
        stderr.seek(0)
        errors = stderr.read()
    cell = {"seed": seed, "traced": traced, "wall_s": wall,
            "maxrss_kb": peak_kb[0], "exit": child.returncode,
            "stderr": errors, "artifact": None, "events": None}
    try:
        entries = json.loads(artifact.read_text())
        cell["artifact"] = entries[0] if len(entries) == 1 else None
        if traced:
            traces = sorted(cell_dir.glob("trace_*.json"))
            if len(traces) == 1:
                cell["events"] = json.loads(traces[0].read_text())[
                    "traceEvents"]
    except (OSError, ValueError, KeyError, IndexError):
        pass
    return cell


def outcome(cell):
    """The per-round results a replay must reproduce: every field except
    wall-clock seconds."""
    return [{k: v for k, v in row.items() if k != "seconds"}
            for row in cell["artifact"]["rounds"]]


def check_cell(cell, workload, reference):
    """Correctness problems of one cell (empty when it passes): exit code,
    error field, round count, finiteness, equality with the reference cell
    of its seed, and for traced cells the trace itself."""
    art = cell["artifact"]
    tag = f"seed {cell['seed']}{' traced' if cell['traced'] else ''}"
    if cell["exit"] != 0 or art is None:
        tail = cell["stderr"].strip().splitlines()[-1:] or ["no stderr"]
        return [f"{tag}: bcl_run exited {cell['exit']}: {tail[0]}"]
    problems = []
    if art.get("error"):
        problems.append(f"{tag}: cell error: {art['error']}")
    rows = art.get("rounds", [])
    if len(rows) != workload.rounds:
        problems.append(f"{tag}: {len(rows)} of {workload.rounds} rounds")
    if not all(math.isfinite(r["accuracy"]) and math.isfinite(r["loss"])
               for r in rows):
        problems.append(f"{tag}: non-finite accuracy or loss")
    if reference is not None and not problems and \
            outcome(cell) != outcome(reference):
        problems.append(f"{tag}: per-round results differ from the "
                        "seed's first cell")
    if cell["traced"]:
        if "trace ring overflow" in cell["stderr"]:
            problems.append(f"{tag}: trace ring overflow")
        if cell["events"] is None:
            problems.append(f"{tag}: no trace written")
        else:
            spans = sum(1 for e in cell["events"]
                        if e["name"] == "round" and e["ph"] == "B")
            if spans != len(rows):
                problems.append(f"{tag}: {spans} round spans for "
                                f"{len(rows)} rounds")
    return problems


# --- metrics ----------------------------------------------------------------


def end_to_end_metrics(cells, workload):
    """Gated end-to-end metrics plus the report-only ones over a run's
    measured untraced cells."""
    round_s = [r["seconds"] for c in cells for r in c["artifact"]["rounds"]]
    busy = [c["artifact"]["metrics"]["histograms"]["round.wall_seconds"]
            ["sum"] for c in cells]
    rounds = sum(len(c["artifact"]["rounds"]) for c in cells)
    by_seed = {c["seed"]: c for c in cells}
    hits = [rounds_to_target([r["accuracy"] for r in c["artifact"]["rounds"]],
                             workload.target) for c in by_seed.values()]
    ttt = None
    if all(h is not None for h in hits):
        ttt = statistics.fmean(
            sum(r["seconds"] for r in c["artifact"]["rounds"][:h + 1])
            for c, h in zip(by_seed.values(), hits))
    p50 = percentile(round_s, 0.5)
    p90 = percentile(round_s, 0.9)
    return {
        "setup_s": statistics.median(c["wall_s"] - b
                                     for c, b in zip(cells, busy)),
        "rounds_per_s": rounds / sum(busy),
        "round_ms_p50": None if p50 is None else p50 * 1e3,
        "round_ms_p90": None if p90 is None else p90 * 1e3,
        "best_acc": statistics.fmean(c["artifact"]["best_accuracy"]
                                     for c in by_seed.values()),
        "peak_rss_mb": statistics.median(c["maxrss_kb"] for c in cells)
        / 1024.0,
        "time_to_target_s": ttt,
        "round_samples": len(round_s),
    }


def span_times(events):
    """Pairs B/E events per (pid, tid) and returns inclusive microseconds
    per (tid, name), counting only the outermost span of a name on its
    thread, plus the time of the direct children of each thread's `round`
    spans.  Raises ValueError on unbalanced or misnested events."""
    totals = defaultdict(float)
    round_children = defaultdict(float)
    stacks = defaultdict(list)
    # A stable sort keeps each thread's records in recorded order, so
    # equal-timestamp B/E pairs stay correctly nested.
    for event in sorted(events, key=lambda e: (e["pid"], e["tid"])):
        key = (event["pid"], event["tid"])
        stack = stacks[key]
        if event["ph"] == "B":
            stack.append((event["name"], event["ts"]))
            continue
        if not stack or stack[-1][0] != event["name"]:
            raise ValueError(f"unmatched E '{event['name']}' on tid {key}")
        name, begin = stack.pop()
        duration = event["ts"] - begin
        if all(open_name != name for open_name, _ in stack):
            totals[(event["tid"], name)] += duration
        if stack and stack[-1][0] == "round":
            round_children[event["tid"]] += duration
    open_spans = [name for stack in stacks.values() for name, _ in stack]
    if open_spans:
        raise ValueError(f"unclosed spans: {', '.join(open_spans)}")
    return totals, round_children


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced cells (spans) and their artifacts
    (counts); obs.trace_overhead compares them with the untraced cells."""
    busy = defaultdict(float)  # name -> us summed over threads and cells
    trainer = defaultdict(float)  # name -> us on the thread running rounds
    children = 0.0
    for cell in traced:
        totals, round_children = span_times(cell["events"])
        trainer_tid = next(tid for tid, name in totals if name == "round")
        for (tid, name), us in totals.items():
            busy[name] += us
            if tid == trainer_tid:
                trainer[name] += us
        children += round_children[trainer_tid]

    counters = defaultdict(float)
    rounds = sim_seconds = wire_bytes = 0
    for cell in traced:
        art = cell["artifact"]
        for name, value in art["metrics"]["counters"].items():
            counters[name] += value
        rounds += len(art["rounds"])
        sim_seconds += art["sim_seconds"]
        wire_bytes += art["bytes"]

    def per_round_ms(us):
        return us / rounds / 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    builds = counters["agreement.gram_builds"]
    hits = counters["agreement.shared_hits"]
    delivered = counters["net.messages_delivered"]
    agreement_own = sum(trainer[name] for name in (
        "agreement.gram_build", "agreement.shared_hit",
        "agreement.inbox_build", "agreement.step"))
    return {
        "ml.grad_ms": per_round_ms(busy["grad.compute"]),
        "ml.eval_ms": per_round_ms(busy["evaluate"]),
        "aggregation.rule_ms": per_round_ms(busy["aggregate.rule"]),
        "aggregation.rule_share": ratio(busy["aggregate.rule"],
                                        busy["round"]),
        "agreement.wall_ms": per_round_ms(busy["agreement"]),
        "agreement.build_busy_ms": per_round_ms(busy["agreement.gram_build"]),
        "agreement.build_parallelism": ratio(busy["agreement.gram_build"],
                                             busy["agreement"]),
        "agreement.inbox_ms": per_round_ms(busy["agreement.inbox_build"]),
        "agreement.engine_wait_ms": per_round_ms(
            max(0.0, trainer["agreement"] - agreement_own)),
        "agreement.builds_per_subround": ratio(
            builds, counters["agreement.subrounds"]),
        "agreement.share_ratio": ratio(hits, hits + builds),
        "learning.sgd_ms": per_round_ms(busy["sgd.apply"]),
        "learning.scaffold_ms": per_round_ms(trainer["round"] - children),
        "attacks.corrupt_ms": per_round_ms(busy["attack.corrupt"]),
        "network.messages_per_subround": ratio(delivered,
                                               counters["net.rounds"]),
        "network.late_ratio": ratio(counters["net.messages_late"], delivered),
        "network.bytes_per_round": wire_bytes / rounds,
        "network.timeouts": counters["net.timeouts_fired"] / rounds,
        "network.sim_s_per_round": sim_seconds / rounds,
        "obs.trace_overhead": sum(c["wall_s"] for c in traced)
        / sum(c["wall_s"] for c in plain) - 1.0,
    }


# --- one run of a workload ---------------------------------------------------


def run_workload(binary, name, seed, seconds, traced, log):
    """One run: a warm-up cell, then cycles over the workload's seeds while
    another cycle fits in `seconds`.  Returns a dict with `metrics`
    (end-to-end when untraced, per-layer when traced), `attempted`,
    `failed` and `problems`."""
    workload = WORKLOADS[name]
    seeds = workload.seeds(seed)
    references = {}
    problems = []
    attempted = failed = 0
    plain, traced_cells = [], []

    def take(cell):
        """Checks a cell; a cell with any problem fails all its rounds."""
        nonlocal attempted, failed
        found = check_cell(cell, workload, references.get(cell["seed"]))
        attempted += workload.rounds
        failed += workload.rounds if found else 0
        problems.extend(found)
        if not found and cell["seed"] not in references:
            references[cell["seed"]] = cell
        return not found

    # An idle machine runs the first seconds of load measurably slower
    # (a 40 ms round takes 60 ms), so one unmeasured cell precedes timing.
    take(run_cell(binary, workload.spec, seeds[0], traced=False))
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for cell_seed in seeds:
            cell = run_cell(binary, workload.spec, cell_seed, traced=False)
            if take(cell):
                plain.append(cell)
            if traced:
                cell = run_cell(binary, workload.spec, cell_seed, traced=True)
                if take(cell):
                    traced_cells.append(cell)
        cycles += 1
        now = time.perf_counter()
        if problems or now - start + (now - cycle_start) > seconds:
            break
    log(f"{name}: {cycles} cycle(s) of {len(seeds)} cells, "
        f"{time.perf_counter() - start:.1f} s measured")
    if not problems:
        best = statistics.fmean(references[s]["artifact"]["best_accuracy"]
                                for s in seeds)
        if best < workload.floor:
            problems.append(f"mean best accuracy {best:.4f} below the "
                            f"floor {workload.floor}")
            failed = attempted

    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "seeds": seeds, "metrics": {}}
    if problems:
        return result
    if traced:
        try:
            result["metrics"] = layer_metrics(traced_cells, plain)
        except (ValueError, StopIteration) as error:
            problems.append(f"trace analysis: {error}")
    else:
        metrics = end_to_end_metrics(plain, workload)
        if metrics["round_ms_p90"] is None:
            problems.append(f"only {metrics['round_samples']} round samples, "
                            "too few for p90")
        metrics["fail_ratio"] = failed / attempted
        # Per-cell times, in run order, to tell a slow machine period (every
        # cell slower) from a slow seed (the same seed slower every cycle).
        metrics["cells"] = [
            {"seed": c["seed"], "wall_s": c["wall_s"],
             "round_s": c["artifact"]["metrics"]["histograms"]
             ["round.wall_seconds"]["sum"]} for c in plain]
        result["metrics"] = metrics
    return result


# --- comparing two reports ----------------------------------------------------


def verdict(parent, change, better, bound):
    """better / worse / same / unresolved for one (metric, workload) pair,
    following the choosing-metrics rules: a gain needs nine tenths of the
    pairs and a median shift beyond the parent's quartile spread; a spread
    wider than the bound is unresolved unless every change run beats every
    parent run; otherwise worse means the median moved the wrong way by
    more than bound x the parent's median."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(old, new):
        return sign * (new - old)

    q1a, ma, q3a = quartiles(parent)
    q1b, mb, q3b = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if gain(old, new) > 0)
    if wins >= 0.9 * len(pairs) and gain(ma, mb) > q3a - q1a:
        return "better"
    spread = max(q3a - q1a, q3b - q1b) / abs(ma) if ma else math.inf
    all_better = all(gain(old, new) > 0 for old in parent for new in change)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain(ma, mb) > bound * abs(ma):
        return "worse"
    return "same"


def compare(bench, parent_path, change_path):
    parent = json.loads(Path(parent_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    worse = 0
    print(f"{'workload':<18} {'metric':<14} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30}  verdict")
    for workload in bench["workloads"]:
        name = workload["name"]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            old, new = ([run[key] for run in report.get(name, {})
                         .get("runs", []) if run.get(key) is not None]
                        for report in (parent, change))
            if not old or not new:
                print(f"{name:<18} {key:<14} missing in one report")
                continue
            result = verdict(old, new, metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{name:<18} {key:<14} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(old)):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(new)):>30}  "
                  f"{result}")
    return 1 if worse else 0


# --- main --------------------------------------------------------------------


def load_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match run.py")
    return bench


def summarize(runs, units):
    summary = {}
    for key, unit in units.items():
        values = [run[key] for run in runs if run.get(key) is not None]
        if values:
            q1, median, q3 = quartiles(values)
            summary[key] = {"median": median, "q1": q1, "q3": q3,
                            "runs": len(values), "unit": unit}
    return summary


def print_table(title, summary):
    print(f"  {title}")
    for key, s in summary.items():
        print(f"    {key:<32} {s['median']:>14.6g} {s['unit']:<12} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, {s['runs']} run(s)]")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long per run, one cycle of "
                        "cells at least (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both)")
    parser.add_argument("--repeat", type=int,
                        help="untraced runs per workload (default: 1 with "
                        "--workload, else 5)")
    parser.add_argument("--out", default="BENCH_e2e.json",
                        help="report file, relative to the repository root")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two reports instead of running")
    args = parser.parse_args()

    def log(message):
        print(message, file=sys.stderr, flush=True)

    try:
        bench = load_benchmark()
        if args.compare:
            return compare(bench, *args.compare)
        binary, build_type = build()
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"run.py: {error}")
        return 2

    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    repeat = args.repeat or (1 if args.workload else 5)
    levels = [args.trace] if args.trace is not None else [0, 1]
    report = {"provenance": provenance(args.seed, build_type),
              "seconds": seconds, "workloads": {}}
    attempted = failed = 0
    problems = []
    for name in names:
        entry = {"spec": WORKLOADS[name].spec, "runs": []}
        for level in levels:
            for _ in range(repeat if level == 0 else 1):
                result = run_workload(binary, name, args.seed, seconds,
                                      level == 1, log)
                attempted += result["attempted"]
                failed += result["failed"]
                problems += [f"{name}: {p}" for p in result["problems"]]
                entry["seeds"] = result["seeds"]
                if level == 0:
                    entry["runs"].append(result["metrics"])
                else:
                    entry["per_layer"] = result["metrics"]
        entry["summary"] = summarize(entry["runs"],
                                     {**e2e_units, **REPORT_ONLY})
        print(f"{name}: {WORKLOADS[name].spec}")
        if entry["summary"]:
            print_table("end to end (untraced)", entry["summary"])
        if entry.get("per_layer"):
            print("  per layer (trace=spans, one run)")
            for key, unit in layer_units.items():
                print(f"    {key:<32} {entry['per_layer'][key]:>14.6g} "
                      f"{unit}")
        report["workloads"][name] = entry
    for problem in problems:
        log(f"FAIL {problem}")
    correct = not problems
    report["correct"] = correct
    (ROOT / args.out).write_text(json.dumps(report, indent=1) + "\n")

    if len(names) == 1 and len(levels) == 1:
        entry = report["workloads"][names[0]]
        if levels[0] == 1:
            values, units = entry.get("per_layer", {}), layer_units
        else:
            values = {k: s["median"] for k, s in entry["summary"].items()}
            units = e2e_units
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in units.items() if key in values}
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
