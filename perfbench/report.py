"""Print every benchmark metric, by name and unit, for every workload.

Usage: python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once per workload and tracing mode, one after another, and
prints one table: end-to-end metrics from the untraced runs, per-layer
metrics from the traced ones.  Exits non-zero if any run fails or reports
an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    args = parser.parse_args()
    names = [w["name"] for w in BENCH["workloads"]]
    table, counts, status = {}, {}, 0
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                status = 1
            for key, m in result["metrics"].items():
                table.setdefault(key, {})[name] = (m["value"], m["unit"])
            failed, attempted = counts.get(name, (0, 0))
            counts[name] = (failed + result["failed"],
                            attempted + result["attempted"])
    table["failed/attempted"] = {n: (f"{f}/{a}", "") for n, (f, a) in counts.items()}
    print(f"{'metric':26}" + "".join(f"{n:>18}" for n in names) + "  unit")
    for key, row in table.items():
        unit = next(iter(row.values()))[1]
        cells = "".join(f"{row[n][0]:>18.10g}" if isinstance(row[n][0], float)
                        else f"{row[n][0]!s:>18}" for n in names)
        print(f"{key:26}{cells}  {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
