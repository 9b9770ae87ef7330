"""Record the benchmark of one commit as BENCH_<sha7>.json.

    python3 tools/bench_record.py COMMIT [--work-dir DIR] [--out DIR]

The commit's files are extracted with ``git archive`` into ``<work-dir>/<its
full sha>``, a path whose length is the same for every commit, because a
workload's peak RSS depends on the length of the checkout path.  The
extract is deleted afterwards; the repository records nothing of it.  Its
own ``perfbench/run.py`` runs there unchanged for ``BENCHMARK.json``'s
``run_seconds``: every workload once per seed of ``SEEDS`` at ``--trace 0``,
seeds outermost, then once per seed of ``TRACE_SEEDS`` at ``--trace 1``.
Seeds and run length are fixed, so any two recordings compare.  The file
holds the commit, the command and seeds, the machine, the median and
quartiles of each end-to-end metric over the untraced runs, and the median
and quartiles of each layer's traced ``self_ms`` over the traced runs: one
traced run moves a layer by up to 12% on unchanged code.  A run that fails
or reports an incorrect output stops the recording, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMAND = ["python3", "perfbench/run.py"]
SEEDS = list(range(701, 711))
TRACE_SEEDS = [711, 712, 713]


def git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def benchmark_spec(checkout: Path) -> tuple[float, list[str], list[str], list[str]]:
    """Run seconds, workload names, end-to-end metric names and traced
    self-time names."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return (
        spec["run_seconds"],
        [w["name"] for w in spec["workloads"]],
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_ms")],
    )


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run of the benchmark: its record and its result line."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    cmd = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{run}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{run}: incorrect: {record['problems']}")
    return record, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def machine_block(record_machine: dict) -> dict:
    machine = {k: v for k, v in record_machine.items() if not k.startswith("loadavg")}
    machine["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return machine


def record(commit: str, work_dir: Path) -> dict:
    start = time.perf_counter()
    checkout = work_dir / commit
    checkout.mkdir(parents=True)
    try:
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", commit], check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive, check=True)
        seconds, workloads, metrics, layers = benchmark_spec(checkout)
        runs = {w: [] for w in workloads}
        machine = None
        for seed in SEEDS:
            for w in workloads:
                rec, result = run_once(checkout, w, seed, seconds, 0)
                machine = machine or machine_block(rec["machine"])
                runs[w].append(result["metrics"])
                p50 = result["metrics"]["op_p50_ms"]["value"]
                print(f"{w} seed {seed}: op_p50_ms {p50:.1f}", file=sys.stderr)
        traced = {w: [] for w in workloads}
        for seed in TRACE_SEEDS:
            for w in workloads:
                traced[w].append(run_once(checkout, w, seed, seconds, 1)[1]["metrics"])
    finally:
        shutil.rmtree(checkout)
    out = {}
    for w in workloads:
        end_to_end = {}
        for m in metrics:
            end_to_end[m] = {**spread([r[m]["value"] for r in runs[w]]), "unit": runs[w][0][m]["unit"]}
        self_ms = {name: spread([r[name]["value"] for r in traced[w]]) for name in layers}
        out[w] = {"runs": len(runs[w]), "end_to_end": end_to_end, "per_layer_self_ms": self_ms}
    return {
        "commit": commit,
        "command": COMMAND + ["--workload", "W", "--seed", "S", "--seconds", repr(seconds), "--trace", "0|1"],
        "seeds": SEEDS,
        "trace_seeds": TRACE_SEEDS,
        "checkout_path_length": len(str(checkout)),
        "machine": machine,
        "recorder_wall_s": round(time.perf_counter() - start, 1),
        "workloads": out,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commit")
    parser.add_argument("--work-dir", type=Path, default=Path(tempfile.gettempdir()) / "specdist-bench")
    parser.add_argument("--out", type=Path, default=REPO)
    args = parser.parse_args()

    commit = git("rev-parse", "--verify", f"{args.commit}^{{commit}}")
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        bench = record(commit, args.work_dir.resolve())
    except RuntimeError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    path = args.out / f"BENCH_{commit[:7]}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
