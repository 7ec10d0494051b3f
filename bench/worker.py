"""The process one workload runs in.

``run.py`` starts it with the isolated environment and its scratch
directory as the working directory; it runs one workload and writes the
outcome as JSON to the path it is given.  Only ``run.py`` starts it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys

import harness

WORKLOADS = ("cold_compile", "tune_sweep", "serve_hot", "emitted_c")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    module = importlib.import_module(f"workloads.{args.workload}")
    outcome = module.run(
        harness.Budget(args.seconds, args.seed, bool(args.trace), args.quick)
    )
    with open(args.out, "w") as f:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             **dataclasses.asdict(outcome)},
            f,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
