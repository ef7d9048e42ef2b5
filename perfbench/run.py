"""Run one workload of the repro benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``,
measured with no instrumentation; with ``--trace 1`` they are its per-layer
metrics, from a run whose second phase is traced.  The exit code is 0 when
every answer matched the oracle, 1 when some did not, and 2 when the
program is missing or the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import RUNNERS

    outcome = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
