#!/usr/bin/env python3
"""Record the output digests of the current code as the reference.

    python3 perfbench/record_reference.py [--first 0] [--count 32] [WORKLOAD ...]

Runs one 1-thread and one 2-thread pass per workload and seed, refuses
to record when the two disagree, and rewrites
perfbench/reference_digests.json.  Re-record only for a change that is
meant to change the outputs, and say so in the change.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TABLE = HERE / "reference_digests.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=32)
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = ap.parse_args()
    harness = run.build(run.build_dir())
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    for w in args.workloads:
        if w not in run.WORKLOADS:
            run.fail(2, "unknown workload " + w)
        for seed in range(args.first, args.first + args.count):
            out = subprocess.run(
                [str(harness), "--workload", w, "--seed", str(seed),
                 "--seconds", "0.001", "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            digests = {p["digest"] for p in json.loads(out)["passes"] if not p["error"]}
            if len(digests) != 1:
                run.fail(1, "%s seed %d: passes disagree or failed" % (w, seed))
            table.setdefault(w, {})[str(seed)] = digests.pop()
            print(w, seed, table[w][str(seed)], flush=True)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
