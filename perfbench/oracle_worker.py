"""The oracle sweep as a library user runs it, in one process.

    python3 oracle_worker.py --seed N --seconds S --trace 0|1 --out OUT.json

Each op builds a fresh seeded pair (f1 = expcos or AR, f2 = a stable
AR(q <= 8) through ``psd_from_ar``), then calls ``rho_empirical`` at every
order of ``inputs.ORACLE_ORDERS`` and ``prediction_ratio``.  No two ops share
a spectrum; all share one grid, as a user's study would.  Ops run in a
closed loop until their summed time reaches S seconds, after one untimed
warm-up op; the in-process speed reference (speed.py) is timed before each.
With ``--trace 1`` the ops alternate untraced and traced.  OUT.json holds
each op's latency, reference time, results or error, and trace, and the
peak resident memory of this process.
"""

import argparse
import json
import time

import inputs
import speed
import specdist as sd
from memory import peak_rss_kb
from tracer import Tracer


def run_op(grid, op: inputs.OracleOp) -> dict:
    if op.f1_kind == "expcos":
        f1 = sd.psd_from_samples(grid, inputs.expcos_density(op.f1_alpha))
    else:
        f1 = sd.psd_from_ar(op.f1_ar, op.f1_sigma2, grid)
    f2 = sd.psd_from_ar(op.f2_ar, op.f2_sigma2, grid)
    result = {f"rho_{p}": sd.rho_empirical(f1, f2, p) for p in inputs.ORACLE_ORDERS}
    result["prediction_ratio"] = sd.prediction_ratio(f1, f2)
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    grid = sd.make_grid(inputs.GRID_N)
    tracer = Tracer() if args.trace else None
    run_op(grid, inputs.oracle_op(args.seed, 0))  # warm-up, not an op
    ops = []
    busy = 0.0
    index = 1
    while busy < args.seconds or (tracer is not None and len(ops) < 2):  # a traced run pairs ops
        op = inputs.oracle_op(args.seed, index)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
            tracer.reset()
        record = {"index": index, "traced": traced, "result": {}, "error": None}
        start = time.perf_counter()
        speed.in_process()
        record["reference_s"] = time.perf_counter() - start
        start = time.perf_counter()
        try:
            record["result"] = run_op(grid, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            record["error"] = repr(exc)
        record["latency_s"] = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            record["trace"] = tracer.snapshot()
        ops.append(record)
        busy += record["latency_s"]
        index += 1
    with open(args.out, "w") as fh:
        json.dump({"ops": ops, "peak_rss_kb": peak_rss_kb()}, fh)


if __name__ == "__main__":
    main()
