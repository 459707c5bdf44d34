"""One timed run of the ``chunkfair run`` path in a fresh process.

Usage: python3 perfbench/child.py CONFIG OUT_DIR [--trace]

Imports chunkfair from the checkout's ``src/``, loads and validates the
config, runs ``run_experiment`` and writes the row and summary CSVs the
way ``chunkfair run`` does, then checks the written rows.  Prints one
JSON object on stdout.  ``run.py`` starts this script and pins the BLAS
thread count in its environment.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite_non_negative(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and value >= 0.0


def check_rows(path: Path) -> tuple[int, int, list[str]]:
    """(rows, rows with an error, problems) of a row CSV.

    A problem is a row out of the harness's sort order or a rate that
    is not finite and non-negative.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    problems = []
    failed = 0
    previous = None
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        key = (int(cells[col["chunk_size"]]), float(cells[col["snr_db"]] or 0.0),
               int(cells[col["trial"]]), cells[col["sa"]], cells[col["pa"]])
        if previous is not None and key < previous:
            problems.append(f"line {number} is out of sort order")
        previous = key
        if cells[col["error"]]:
            failed += 1
            continue
        values = cells[col["rates"]].split(";") + [
            cells[col[name]] for name in ("min_rate", "min_weighted_rate", "sum_rate", "min_edge_rate")
            if cells[col[name]]
        ]
        if not all(_finite_non_negative(v) for v in values):
            problems.append(f"line {number} has a rate that is not finite and non-negative")
    return len(lines) - 1, failed, problems


def check_summary(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        return ["summary CSV has no rows"]
    header = lines[0].split(",")
    mean, half = header.index("mean"), header.index("ci95_halfwidth")
    problems = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if not (math.isfinite(float(cells[mean])) and _finite_non_negative(cells[half])):
            problems.append(f"summary line {number} is not finite")
    return problems


def main(argv: list[str]) -> int:
    config_path, out_dir = argv[0], Path(argv[1])
    traced = "--trace" in argv[2:]
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import chunkfair
    from chunkfair import harness
    imported = time.perf_counter()
    config = harness.ExperimentConfig.from_file(config_path)
    loaded = time.perf_counter()
    if not Path(chunkfair.__file__).resolve().is_relative_to(SRC):
        print(f"chunkfair was imported from {chunkfair.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from calibrate import calibrate

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rows_path, summary_path = out_dir / "rows.csv", out_dir / "rows.summary.csv"
    calib_s = calibrate()
    first_trial = time.perf_counter()
    rows, summary = harness.run_experiment(config)
    harness.emit_csv(rows, rows_path)
    harness.emit_summary_csv(summary, summary_path)
    run_s = time.perf_counter() - first_trial
    calib_s += calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_rows, failed, problems = check_rows(rows_path)
    problems += check_summary(summary_path)
    result = {
        "import_s": imported - start,
        "config_s": loaded - imported,
        "run_s": run_s,
        "calib_s": statistics.median(calib_s),
        "peak_rss_mb": peak_rss_mb,
        "rows": n_rows,
        "failed_rows": failed,
        "problems": problems,
        "digests": [_digest(rows_path), _digest(summary_path)],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
