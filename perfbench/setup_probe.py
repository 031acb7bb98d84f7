"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times what every command pays before its first step: importing wflow,
loading the config, building the problem (which validates the standing
assumptions) and the initial conversion to quantile nodes.  Prints the
split as one JSON line.

Usage: python3 perfbench/setup_probe.py CONFIG   (with src/ on PYTHONPATH)
"""

import json
import sys
import time


def main(config_path: str) -> None:
    t0 = time.perf_counter()
    from wflow import cli
    from wflow.density import to_quantiles
    t1 = time.perf_counter()
    cfg = cli.load_config(config_path)
    t2 = time.perf_counter()
    problem = cfg.problem()
    t3 = time.perf_counter()
    nodes = to_quantiles(cfg.initial_density(), problem.m)
    t4 = time.perf_counter()
    if not nodes.strictly_increasing:
        sys.exit("initial quantile nodes are not strictly increasing")
    print(json.dumps({"cli.import_s": t1 - t0, "cli.load_config_s": t2 - t1,
                      "convex.validate_s": t3 - t2,
                      "density.to_quantiles_s": t4 - t3}))


if __name__ == "__main__":
    main(sys.argv[1])
