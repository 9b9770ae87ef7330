"""specdist benchmark: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, grid n = 4096; inputs from --seed):

  matrix-k200   ``specdist matrix`` over 200 PSD files, a fresh process per op
  estimate-1m   ``specdist estimate`` (Welch 512/0.5/hann) on 2^20 samples,
                a fresh process per op
  path-101      ``specdist geodesic ar:... expcos:... --steps 101 --out DIR``,
                a fresh process per op
  oracle-sweep  in-process library calls: rho_empirical at p = 16..512 and
                prediction_ratio on a fresh seeded pair per op

Every op's output is checked against a reference computed here with numpy
alone; after the loop a corrupted copy of one output must fail its check.
End-to-end timings are reported at reference machine speed (speed.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` ops alternate untraced and traced (every layer wrapped,
see tracer.py) and it carries the per-layer metrics.  The line before it is
a record of the machine, the inputs and every op.

The program is the ``specdist`` package under ``src/`` next to this
directory; the benchmark exits with status 2 and prints no result when it
is missing.  BLAS and OpenMP pools are pinned to one thread so that the
benchmark and the program together never run more threads than cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import speed
from tracer import COUNTS, LAYER_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_PROBE = "import specdist.cli"
# Set-up is timed this many times before the ops and as many after, so its
# median spans the run.
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot produce a result (program missing, a traced
    layer that never fired, a worker that crashed)."""


# ---------------------------------------------------------------- workloads
#
# ``layers`` and ``counts`` name what a workload's traced ops must reach; a
# traced run in which one of them stays at zero fails.


class Matrix:
    name = "matrix-k200"
    layers = (
        "cli.main",
        "io.read_psd_csv",
        "spectra.psd_from_samples",
        "io.build_distance_matrix",
        "divergences.geodesic_distance",
        "spectra.log_ratio",
        "grid.central_variance",
        "io.write_distance_matrix_csv",
    )
    counts = (
        "io.read_bytes",
        "io.write_bytes",
        "divergences.pairs",
        "divergences.inf_pairs",
        "divergences.shared_zero_pairs",
    )

    def __init__(self, seed: int, work: Path):
        self.data = data = inputs.matrix_inputs(seed, work)
        self.ref, shares = checks.matrix_reference(data.values)
        self.properties = {
            "n": inputs.GRID_N,
            "K": inputs.MATRIX_K,
            "bytes_on_disk": data.bytes_on_disk,
            **shares,
        }

    def argv(self, out: Path) -> list[str]:
        return ["matrix", *map(str, self.data.paths), "--out", str(out / "matrix.csv")]

    def check(self, out: Path) -> list[str]:
        return checks.check_matrix(out / "matrix.csv", self.data.labels, self.ref)

    def corrupt(self, out: Path) -> None:
        """Perturb one finite entry, in both of its symmetric cells."""
        path = out / "matrix.csv"
        rows = [line.split(",") for line in path.read_text().split("\n")[:-1]]
        i, j = next(
            (i, j)
            for i in range(1, len(rows))
            for j in range(i + 1, len(rows))
            if rows[i][j] != "inf"
        )
        rows[i][j] = rows[j][i] = f"{float(rows[i][j]) * (1 + 1e-6):.12g}"
        path.write_text("".join(",".join(r) + "\n" for r in rows))


class Estimate:
    name = "estimate-1m"
    layers = (
        "cli.main",
        "io.read_timeseries_csv",
        "estimation.welch",
        "spectra.psd_from_samples",
        "io.write_psd_csv",
    )
    counts = ("io.read_bytes", "io.write_bytes", "estimation.welch.segments")

    def __init__(self, seed: int, work: Path):
        self.data = data = inputs.series_inputs(seed, work)
        self.ref = checks.welch_reference(data.samples)
        self.properties = {
            "n": inputs.GRID_N,
            "series_len": inputs.SERIES_LEN,
            "segment": inputs.WELCH_SEGMENT,
            "overlap": inputs.WELCH_OVERLAP,
            "bytes_on_disk": data.bytes_on_disk,
        }

    def argv(self, out: Path) -> list[str]:
        return [
            "estimate", str(self.data.path),
            "--method", "welch",
            "--segment", str(inputs.WELCH_SEGMENT),
            "--overlap", str(inputs.WELCH_OVERLAP),
            "--window", "hann",
            "--grid", str(inputs.GRID_N),
            "--out", str(out / "psd.csv"),
        ]  # fmt: skip

    def check(self, out: Path) -> list[str]:
        return checks.check_psd_file(out / "psd.csv", self.ref, checks.WELCH_RTOL)

    def corrupt(self, out: Path) -> None:
        """Alter one PSD value."""
        path = out / "psd.csv"
        lines = path.read_text().split("\n")
        theta, value = lines[100].split(",")
        lines[100] = f"{theta},{float(value) * (1 + 1e-6):.17g}"
        path.write_text("\n".join(lines))


class GeodesicPath:
    name = "path-101"
    layers = (
        "cli.main",
        "spectra.psd_from_ar",
        "spectra.psd_from_samples",
        "geodesics.geodesic_path",
        "geodesics.geodesic_point",
        "io.write_psd_csv",
    )
    counts = ("io.write_bytes",)

    def __init__(self, seed: int, work: Path):
        self.data = data = inputs.path_inputs(seed)
        self.ref = checks.path_reference(data.f0, data.f1, inputs.PATH_STEPS)
        self.properties = {
            "n": inputs.GRID_N,
            "steps": inputs.PATH_STEPS,
            "f0": data.f0_arg,
            "f1": data.f1_arg,
        }

    def argv(self, out: Path) -> list[str]:
        return [
            "geodesic", self.data.f0_arg, self.data.f1_arg,
            "--steps", str(inputs.PATH_STEPS),
            "--grid", str(inputs.GRID_N),
            "--out", str(out / "path"),
        ]  # fmt: skip

    def check(self, out: Path) -> list[str]:
        return checks.check_path(out / "path", self.data.f0, self.data.f1, self.ref)

    def corrupt(self, out: Path) -> None:
        """Remove one path file."""
        sorted((out / "path").iterdir())[inputs.PATH_STEPS // 2].unlink()


class OracleSweep:
    name = "oracle-sweep"
    layers = (
        "spectra.psd_from_ar",
        "spectra.psd_from_samples",
        "prediction.rho_empirical",
        "prediction.autocov_from_psd",
        "prediction.levinson",
        "prediction.degraded_variance",
        "spectra.geometric_mean",
        "divergences.prediction_ratio",
    )
    counts = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.properties = {"n": inputs.GRID_N, "orders": list(inputs.ORACLE_ORDERS)}

    def check(self, index: int, result: dict) -> list[str]:
        return checks.check_oracle(result, checks.oracle_reference(inputs.oracle_op(self.seed, index)))

    @staticmethod
    def corrupt(result: dict) -> dict:
        """Perturb one rho value."""
        key = f"rho_{inputs.ORACLE_ORDERS[-1]}"
        return {**result, key: result[key] * (1 + 1e-8)}


WORKLOADS = {w.name: w for w in (Matrix, Estimate, GeodesicPath, OracleSweep)}


# ---------------------------------------------------------------- processes


def run_process(cmd: list[str], env: dict, log: Path, timeout: float = OP_TIMEOUT_S) -> tuple[float, int]:
    """Run ``cmd`` to completion; wall seconds and exit status (-9 when it
    outlived ``timeout`` and was killed).

    The wait blocks in waitpid: Popen.wait(timeout=...) polls with sleeps
    of up to 50 ms, which would quantize every latency.  A timer signal
    kills the process instead.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh, env=env, cwd=ROOT) as proc:
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                code = proc.wait()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, code


def _log_tail(path: Path) -> str:
    return path.read_text(errors="replace")[-300:].strip()


def check_program(env: dict, work: Path) -> None:
    """specdist must import from this checkout.  The first import also
    leaves the bytecode cache in place, as an install would."""
    where = work / "where.txt"
    probe = [sys.executable, "-c", f"{SETUP_PROBE}; print(specdist.cli.__file__)"]
    _, code = run_process(probe, env, where)
    located = where.read_text().strip()
    if code != 0 or not located.startswith(str(SRC)):
        raise BenchError(f"specdist does not import from {SRC}: {located[-300:]}")


def time_reference(source: str, env: dict, log: Path) -> float:
    """Seconds a fresh interpreter takes to run a speed reference."""
    latency, code = run_process([sys.executable, "-c", source], env, log)
    if code != 0:
        raise BenchError(f"speed reference failed: {_log_tail(log)}")
    return latency


def measure_setup(env: dict, work: Path) -> list[dict]:
    """Seconds for a fresh interpreter to import specdist.cli, each time
    after the set-up reference (see speed.py)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        reference = time_reference(speed.SETUP, env, work / "setup.txt")
        latency, code = run_process([sys.executable, "-c", SETUP_PROBE], env, work / "setup.txt")
        if code != 0:
            raise BenchError(f"importing specdist.cli failed: {_log_tail(work / 'setup.txt')}")
        samples.append({"latency_s": latency, "reference_s": reference})
    return samples


# ---------------------------------------------------------------- op loops


def cli_loop(workload, seconds: float, trace: bool, env: dict, work: Path) -> tuple[list[dict], bool | None]:
    """Closed loop of fresh ``specdist`` processes until their summed wall
    time reaches ``seconds``.  Returns the op records and whether the
    corruption self-test bit (None when no op passed)."""
    ops: list[dict] = []
    busy = 0.0
    last_ok = None
    while busy < seconds or (trace and len(ops) < 2):  # a traced run pairs ops
        index = len(ops)
        traced = trace and index % 2 == 1
        out = work / f"op{index}"
        out.mkdir()
        report = out / "report.json"
        reference = time_reference(speed.CLI_OP, env, out / "log.txt")
        cmd = [sys.executable, str(BENCH_DIR / "cli_op.py"), str(report), str(int(traced)), *workload.argv(out)]
        latency, code = run_process(cmd, env, out / "log.txt")
        problems = workload.check(out) if code == 0 else [f"exit status {code}: {_log_tail(out / 'log.txt')}"]
        record = {"latency_s": latency, "reference_s": reference, "traced": traced, "problems": problems}
        if report.is_file():
            record.update(json.loads(report.read_text()))
        ops.append(record)
        busy += latency
        if problems:
            shutil.rmtree(out)
        else:
            if last_ok is not None:
                shutil.rmtree(last_ok)
            last_ok = out
    bites = None
    if last_ok is not None:
        workload.corrupt(last_ok)
        bites = bool(workload.check(last_ok))
    return ops, bites


def oracle_loop(workload: OracleSweep, seconds: float, trace: bool, env: dict, work: Path):
    out = work / "oracle.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "oracle_worker.py"),
        "--seed", str(workload.seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ]  # fmt: skip
    _, code = run_process(cmd, env, work / "oracle.log", timeout=seconds + OP_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"oracle worker exited with {code}: {_log_tail(work / 'oracle.log')}")
    report = json.loads(out.read_text())
    ops = []
    last_ok = None
    for op in report["ops"]:
        if op["error"]:
            problems = [op["error"]]
        else:
            problems = workload.check(op["index"], op["result"])
        record = {
            "latency_s": op["latency_s"],
            "reference_s": op["reference_s"],
            "traced": op["traced"],
            "problems": problems,
        }
        if "trace" in op:
            record["trace"] = op["trace"]
        ops.append(record)
        if not problems:
            last_ok = op
    bites = None
    if last_ok is not None:
        bites = bool(workload.check(last_ok["index"], workload.corrupt(last_ok["result"])))
    return ops, bites, report["peak_rss_kb"]


# ---------------------------------------------------------------- metrics


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest of p99.9/p99/p95/p90 with at least 10 ops
    beyond it; p90 when the run has fewer than 100 ops.  Returns the
    latency, the percentile and the number of ops beyond it."""
    n = len(latencies)
    pct = next((p for p in (99.9, 99.0, 95.0) if n * (100.0 - p) / 100.0 >= 10), 90.0)
    value = float(np.percentile(latencies, pct))
    return value, pct, sum(x > value for x in latencies)


def end_to_end(ops: list[dict], nominal_s: float, setup_s: float, peak_rss_kb: float) -> tuple[dict, dict]:
    """Metrics of an untraced run, with op times at reference speed."""
    latencies = [speed.scaled(op["latency_s"], op["reference_s"], nominal_s) for op in ops]
    tail, pct, beyond = tail_latency(latencies)
    failed = sum(bool(op["problems"]) for op in ops)
    metrics = {
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "ok_op_share": ((len(ops) - failed) / len(ops), "share"),
    }
    detail = {"tail_percentile": pct, "ops_beyond_tail": beyond, "failed_op_share": failed / len(ops)}
    return metrics, detail


def per_layer(workload, ops: list[dict], setup_overhead: float) -> dict:
    traced = [op for op in ops if op["traced"]]
    untraced = [op["latency_s"] for op in ops if not op["traced"]]
    ok = [op["trace"] for op in traced if "trace" in op]
    if not ok:
        raise BenchError(f"no traced op completed: {traced[0]['problems'] if traced else 'none ran'}")
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.self_ms"] = (statistics.median(t["layers"][name]["self_ms"] for t in ok), "ms")
        metrics[f"{name}.calls"] = (statistics.median(t["layers"][name]["calls"] for t in ok), "count")
    for name in COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (statistics.median(t["counts"][name] for t in ok), unit)
    missing = [n for n in workload.layers if not metrics[f"{n}.calls"][0]]
    missing += [n for n in workload.counts if not metrics[n][0]]
    if missing:
        raise BenchError(f"{workload.name}: expected layers or counts never fired: {missing}")
    # Ops alternate untraced, traced: pairing neighbours cancels slow drift
    # in machine speed.
    extra = [b["latency_s"] - a["latency_s"] for a, b in zip(ops[0::2], ops[1::2])]
    share = statistics.median(extra) / (statistics.median(untraced) - setup_overhead)
    metrics["trace_overhead_share"] = (share, "share")
    return metrics


# ---------------------------------------------------------------- record


def machine_record() -> dict:
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            record["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                record[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "specdist" / "__init__.py").is_file():
        print(f"benchmark: no specdist package under {SRC}", file=sys.stderr)
        return 2
    machine = machine_record()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        check_program(env, work)
        setup = measure_setup(env, work)
        workload = WORKLOADS[args.workload](args.seed, work)
        trace = bool(args.trace)
        if isinstance(workload, OracleSweep):
            ops, bites, peak_rss_kb = oracle_loop(workload, args.seconds, trace, env, work)
        else:
            ops, bites = cli_loop(workload, args.seconds, trace, env, work)
            peaks = [op["peak_rss_kb"] for op in ops if "peak_rss_kb" in op]
            if not peaks:
                raise BenchError(f"no op reported its memory; first problems: {ops[0]['problems']}")
            peak_rss_kb = statistics.median(peaks)
        setup += measure_setup(env, work)
        in_process = isinstance(workload, OracleSweep)
        if trace:
            setup_overhead = 0.0 if in_process else statistics.median(t["latency_s"] for t in setup)
            metrics, detail = per_layer(workload, ops, setup_overhead), {}
        else:
            setup_s = statistics.median(
                speed.scaled(t["latency_s"], t["reference_s"], speed.SETUP_NOMINAL_S) for t in setup
            )
            nominal_s = speed.IN_PROCESS_NOMINAL_S if in_process else speed.CLI_OP_NOMINAL_S
            metrics, detail = end_to_end(ops, nominal_s, setup_s, peak_rss_kb)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    machine["loadavg_end"] = os.getloadavg()
    failed = sum(bool(op["problems"]) for op in ops)
    problems = [p for op in ops for p in op["problems"]][:5]
    if bites is False:
        problems.append("corruption self-test: a corrupted output passed its check")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "inputs": workload.properties,
        "ops": len(ops),
        "op_latencies_s": [op["latency_s"] for op in ops],
        "op_references_s": [op["reference_s"] for op in ops],
        "setup_samples_s": setup,
        "self_test_bites": bites,
        "problems": problems,
        **detail,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and bites is True,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
