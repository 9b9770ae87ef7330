"""Compare two benchmark recordings, as written by tools/bench_record.py.

    python3 tools/bench_compare.py OLD NEW

For each workload and each end-to-end metric of ``BENCHMARK.json`` it prints
the OLD and NEW medians, the ratio NEW/OLD, and whether the two [q1, q3]
ranges overlap; a gain or a loss whose ranges overlap is not told apart from
the spread of the runs.  Then it prints, per workload, the traced ``self_ms``
of every layer that is nonzero in either file, with NEW - OLD, and whether
the layer's [q1, q3] ranges overlap when both files hold them (recordings
of one traced run hold a single value per layer).  A note heads
the tables when the two files were recorded on different machines or from
checkout paths of different lengths, since neither then compares.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _overlap(a: dict, b: dict) -> bool:
    return a["q1"] <= b["q3"] and b["q1"] <= a["q3"]


def _layer(value) -> dict:
    """A layer's traced self_ms as a spread; a single traced run has none."""
    return value if isinstance(value, dict) else {"median": value}


def compare(old: dict, new: dict, spec: dict) -> list[str]:
    """The report's lines for recordings ``old`` and ``new`` under the
    benchmark declaration ``spec``."""
    lines = [f"OLD {old['commit'][:7]}  NEW {new['commit'][:7]}"]
    om, nm = old["machine"], new["machine"]
    recorded = {f"machine {k}": (om.get(k), nm.get(k)) for k in [*om, *(k for k in nm if k not in om)]}
    recorded["checkout_path_length"] = (old.get("checkout_path_length"), new.get("checkout_path_length"))
    for key, (x, y) in recorded.items():
        if x != y:
            lines.append(f"note: {key} differs: OLD {x!r}, NEW {y!r}")
    lines.append("")
    row = "{:<13} {:<12} {:>12} {:>12} {:>8}  {}"
    lines.append(row.format("workload", "metric", "OLD median", "NEW median", "NEW/OLD", "[q1,q3] overlap"))
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in (m["name"] for m in spec["end_to_end"]):
            a = old["workloads"][workload]["end_to_end"][metric]
            b = new["workloads"][workload]["end_to_end"][metric]
            ratio = f"{b['median'] / a['median']:.3f}" if a["median"] else "-"
            overlap = "yes" if _overlap(a, b) else "no"
            lines.append(row.format(workload, metric, f"{a['median']:.4g}", f"{b['median']:.4g}", ratio, overlap))
    lines.append("")
    row = "{:<13} {:<40} {:>10} {:>10} {:>10}  {}"
    lines.append(row.format("workload", "traced self_ms", "OLD", "NEW", "NEW - OLD", "[q1,q3] overlap"))
    for workload in (w["name"] for w in spec["workloads"]):
        a = old["workloads"][workload]["per_layer_self_ms"]
        b = new["workloads"][workload]["per_layer_self_ms"]
        for layer in [*a, *(name for name in b if name not in a)]:
            x, y = _layer(a.get(layer, 0.0)), _layer(b.get(layer, 0.0))
            if x["median"] or y["median"]:
                overlap = ("yes" if _overlap(x, y) else "no") if "q1" in x and "q1" in y else ""
                delta = f"{y['median'] - x['median']:+.2f}"
                cells = f"{x['median']:.2f}", f"{y['median']:.2f}", delta, overlap
                lines.append(row.format(workload, layer, *cells).rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    print("\n".join(compare(old, new, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
