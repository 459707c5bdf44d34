"""chunkfair benchmark: time the ``chunkfair run`` path on three sweep workloads.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in ``workloads.py`` or ``all``.  Run it
from anywhere; it uses the checkout that holds this file.  This script
starts one fresh, single-threaded Python process per run of the CLI
path (``child.py``), one after another, with the BLAS thread count
pinned to 1, for S seconds and at least ``MIN_RUNS`` runs, and reports
medians over those runs.  Runs cycle through ``BLOCKS`` input blocks
derived from the seed; runs of one block must write byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced runs, then runs the
microbenchmarks (``micro.py``), and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the environment and the run.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the benchmark could
not run at all.
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

from calibrate import REFERENCE_S
from tracer import COUNTS, TRACED
from workloads import WORKLOADS, expected_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "chunkfair"
WORK = ROOT / ".perfbench_work"

BLOCKS = 8            # input blocks per invocation
BLOCK_STRIDE = 1_000_003
MIN_RUNS = BLOCKS     # untraced runs per invocation, at least: one per block
MIN_TRACED = 3        # traced runs per traced invocation, at least
DEADLINE_S = 120      # start no run after this, so an invocation ends inside 180 s
CHILD_TIMEOUT_S = 45
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Functions whose traced callees make self time differ from busy time.
WITH_CALLEES = ("channel.realize_channel", "assign.exhaustive_sa_oracle",
                "multicell.build_scenario", "multicell.multicell_sa",
                "harness.run_experiment", "harness.summarize")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    return env


def run_child(script: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p_hi(values: list[float]) -> float:
    """Highest order statistic with ten samples beyond it, never below the median.

    With fewer than 21 samples no order statistic above the median has
    ten beyond it, so the median itself is returned.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 21 else statistics.median(ordered)


def block_seeds(seed: int) -> list[int]:
    """Config seeds of the input blocks of one invocation; block 0 uses ``seed`` itself.

    Run i of an invocation uses block i mod BLOCKS, so an invocation
    averages over BLOCKS x trials trials rather than one block's: the
    cost of a trial varies with its channel draw (by up to about 20% between
    six-trial blocks of oracle-small), and one block would make that
    variation part of the spread between seeds.
    """
    return [seed + j * BLOCK_STRIDE for j in range(BLOCKS)]


def collect(name: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, dict]:
    """Run the workload's children for ``seconds``: (untraced, traced, micro).

    Each run's result is tagged with its input block.
    """
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for block, block_seed in enumerate(block_seeds(seed)):
            path = work / f"config{block}.json"
            path.write_text(json.dumps(dict(WORKLOADS[name].config, seed=block_seed)), encoding="utf-8")
            paths.append(path)

        def run(runs: list, *flags: str) -> None:
            block = len(runs) % BLOCKS
            runs.append(dict(run_child("child.py", str(paths[block]), str(work), *flags), block=block))

        plain, traced = [], []
        started = time.monotonic()
        while True:
            elapsed = time.monotonic() - started
            enough = len(plain) >= MIN_RUNS and (not trace or len(traced) >= MIN_TRACED)
            if (enough and elapsed >= seconds) or elapsed >= DEADLINE_S:
                break
            if trace and len(traced) < len(plain):
                run(traced, "--trace")
            else:
                run(plain)
        micro = run_child("micro.py", str(seed)) if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another invocation is still using it
            pass
    return plain, traced, micro


def check(name: str, seed: int, runs: list[dict]) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, problems) over the input blocks of one invocation.

    Every run must write the expected number of rows in sort order with
    finite, non-negative rates, and the same bytes as the first run of
    its block, traced or not; at the workload's default seed, block 0
    must match the pinned digests.  Rows are counted once per input
    block, not once per run: repeated runs of a block re-measure the
    same trials, so the counts depend only on the seed, not on how many
    runs fit in the measured time.  A block with a run that fails a
    check counts all of its rows as failed.
    """
    workload = WORKLOADS[name]
    expected = expected_rows(workload.config)
    pinned = seed == workload.default_seed
    first = {0: list(workload.digests)} if pinned else {}
    failed_by_block = {}
    problems = []
    for i, run in enumerate(runs):
        own = list(run["problems"])
        if run["rows"] != expected:
            own.append(f"wrote {run['rows']} rows, expected {expected}")
        reference = first.setdefault(run["block"], run["digests"])
        if run["digests"] != reference:
            source = "pinned in workloads.py" if pinned and run["block"] == 0 else "of its block's first run"
            own.append(f"CSV digests differ from those {source}")
        failed = expected if own else run["failed_rows"]
        failed_by_block[run["block"]] = max(failed, failed_by_block.get(run["block"], 0))
        problems += [f"run {i}: {p}" for p in own]
    return expected * len(failed_by_block), sum(failed_by_block.values()), problems


def end_to_end(trials: int, plain: list[dict], attempted: int, failed: int) -> dict:
    """End-to-end values; throughput is over the whole input set, one median per block.

    Blocks differ in cost and, in a short invocation, in how many runs
    they get, so a median over runs would weight blocks unequally.
    """
    scaled = {}
    for r in plain:
        scaled.setdefault(r["block"], []).append(r["run_s"] * REFERENCE_S / r["calib_s"])
    return {
        "trials_per_s": trials * len(scaled) / sum(statistics.median(t) for t in scaled.values()),
        "setup_s": statistics.median(
            (r["import_s"] + r["config_s"]) * REFERENCE_S / r["calib_s"] for r in plain),
        "wall_trials_per_s": statistics.median(trials / r["run_s"] for r in plain),
        "wall_setup_s": statistics.median(r["import_s"] + r["config_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_row_share": 1.0 - failed / attempted,
        "failed_row_share": failed / attempted,
    }


def per_layer(name: str, plain: list[dict], traced: list[dict], micro: dict) -> tuple[dict, list]:
    """All per-layer values of a traced invocation, and the unhooked functions."""
    out = {}
    traces = [r["trace"] for r in traced]
    for fn in TRACED:
        per_run = [t["durations"][fn] for t in traces]
        pooled = [d for durations in per_run for d in durations]
        out[f"{fn}.calls"] = statistics.median(len(d) for d in per_run)
        out[f"{fn}.busy_s"] = statistics.median(sum(d) for d in per_run)
        out[f"{fn}.p50_us"] = statistics.median(pooled) * 1e6 if pooled else 0.0
        out[f"{fn}.p_hi_us"] = p_hi(pooled) * 1e6 if pooled else 0.0
        out[f"{fn}.raised"] = statistics.median(t["raised"][fn] for t in traces)
        if fn in WITH_CALLEES:
            out[f"{fn}.self_s"] = statistics.median(
                sum(t["durations"][fn]) - t["callee_s"][fn] for t in traces)
    for count in COUNTS:
        out[count] = statistics.median(t["counts"][count] for t in traces)
    out["setup.import_s"] = statistics.median(r["import_s"] for r in traced)
    out["setup.config_s"] = statistics.median(r["config_s"] for r in traced)
    untraced = {}
    for r in plain:
        untraced.setdefault(r["block"], []).append(r["run_s"] / r["calib_s"])
    out["trace.overhead_share"] = statistics.median(
        r["run_s"] / r["calib_s"] / statistics.median(untraced[r["block"]]) for r in traced) - 1.0
    out["trace.raised"] = statistics.median(sum(t["raised"].values()) for t in traces)
    unhooked = [fn for fn in WORKLOADS[name].expects if out[f"{fn}.calls"] == 0]
    out["trace.unhooked"] = len(unhooked)
    for case, durations in micro.items():
        out[f"{case}.p50_us"] = statistics.median(durations) * 1e6
        out[f"{case}.p_hi_us"] = p_hi(durations) * 1e6
    return out, unhooked


def environment(name: str, seed: int, plain: list, traced: list) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "trials_per_run": WORKLOADS[name].config["trials"],
        "input_blocks": BLOCKS,
        "runs": len(plain),
        "traced_runs": len(traced),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": plain[0]["numpy"],
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload, print its report lines, and return its result object."""
    plain, traced, micro = collect(name, seed, seconds, trace)
    attempted, failed, problems = check(name, seed, plain + traced)
    values = end_to_end(WORKLOADS[name].config["trials"], plain, attempted, failed)
    wanted = spec["end_to_end"]
    unhooked = []
    if trace:
        layers, unhooked = per_layer(name, plain, traced, micro)
        values.update(layers)
        wanted = spec["per_layer"]

    print("perfbench env " + json.dumps(environment(name, seed, plain, traced)))
    print(f"perfbench {name} " + " ".join(
        f"{key}={values[key]:.6g} {unit}" for key, unit in (
            ("trials_per_s", "trials/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
            ("failed_row_share", "fraction"), ("wall_trials_per_s", "trials/s"),
            ("wall_setup_s", "s"))))
    print("perfbench run_s " + " ".join(f"{r['run_s']:.4f}" for r in plain))
    digests = plain[0]["digests"]
    pinned = "checked" if seed == WORKLOADS[name].default_seed else "not pinned for this seed"
    print(f"perfbench digests block 0 rows={digests[0]} summary={digests[1]} ({pinned})")
    if trace:
        untraced = {r["block"]: r["digests"] for r in plain}
        match = all(r["digests"] == untraced[r["block"]] for r in traced)
        print(f"perfbench trace overhead={values['trace.overhead_share']:+.2%} "
              f"unhooked={unhooked} traced_digests_match={match}")
        print("perfbench layers " + json.dumps(values, sort_keys=True))
    for problem in problems:
        print(f"perfbench FAILED {name}: {problem}")

    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's shipped seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no chunkfair sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            results[name] = measure(name, seed, seconds, bool(args.trace), spec)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
