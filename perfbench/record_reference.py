"""Record ``reference.json``: the output digests every run is checked
against, for each program seed.

Run from the repository root at the commit whose outputs are the
reference (it takes a few minutes)::

    python3 perfbench/record_reference.py

Quick-preset digests come from a cold run with two jobs (the program
keeps results bit-identical at any job count).
"""

import json
import sys
import time

import run


def main() -> int:
    runner = run.Runner(time.monotonic() + 3600)
    reference = {"quick": {}, "serve": {}}
    try:
        for seed in range(run.REFERENCE_SEEDS):
            quick = runner.spawn(
                run.quick_spec(seed, runner.fresh_dir("cold"), jobs=2)
            )
            serve = runner.spawn(run.serve_spec(seed))
            for name, result in (("quick", quick), ("serve", serve)):
                if result.get("error"):
                    print(f"seed {seed} {name}: the program failed",
                          file=sys.stderr)
                    return 1
                reference[name][str(seed)] = result["ops"]
            print(f"seed {seed}: {len(quick['ops']['cells'])} cells, "
                  f"{len(quick['ops']['reports'])} reports, "
                  f"{len(serve['ops']['tasks'])} tasks", file=sys.stderr)
    finally:
        runner.close()
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
