"""Machine-speed references for the benchmark's timings.

On the shared machine this benchmark was built on, one and the same op runs
anywhere between 1x and 2x its fastest time, in spells of seconds to
minutes, as other tenants load the host.  Raw wall times from runs minutes
apart therefore differ by more than any useful regression bound.  So every
timed op is paired with a fixed reference, timed just before it, that does
the same kinds of work (interpreter start, CSV text parsing and float
formatting, numpy reductions) and runs no specdist code, so no change to
the program can move it.  A timing is reported as

    raw seconds * NOMINAL_S / reference seconds,

its value at the machine speed where the reference takes its nominal time.
Raw timings and reference timings stay in each run's record.
"""

import numpy as np

# Reference for a CLI op: a fresh interpreter that parses and reduces
# numbers as the specdist verbs do.
CLI_OP = r"""
import numpy as np
vals = np.exp(np.sin(0.001 * np.arange(150000)))
text = "\n".join(f"{k},{v:.17g}" for k, v in enumerate(vals.tolist()))
parsed = np.array([float(line.split(",")[1]) for line in text.split("\n")])
logs = np.log(parsed[:144000]).reshape(36, 4000)
for row in logs:
    d = row - logs
    d -= d.mean(axis=1, keepdims=True)
    np.sqrt(np.mean(d * d, axis=1))
"""
CLI_OP_NOMINAL_S = 0.4

# Reference for set-up: a fresh interpreter importing what specdist.cli
# imports from outside the package.
SETUP = "import argparse, csv, dataclasses, enum, math, pathlib; import numpy"
SETUP_NOMINAL_S = 0.12

IN_PROCESS_NOMINAL_S = 0.05

_VALUES = np.exp(np.sin(0.01 * np.arange(4096)))


def in_process() -> None:
    """Reference for an in-process op: text round trip of a 4096-point
    density and a 128 x 4096 cosine table applied to it, three times."""
    for _ in range(3):
        text = "\n".join(f"{k},{x:.17g}" for k, x in enumerate(_VALUES.tolist()))
        parsed = np.array([float(line.split(",")[1]) for line in text.split("\n")])
        float((np.cos(np.outer(np.arange(128), np.log(parsed))) @ parsed).sum())


def scaled(raw_s: float, reference_s: float, nominal_s: float) -> float:
    return raw_s * nominal_s / reference_s
