"""Check a traced perfbench result against pinned counts.

    python3 .github/scripts/check_traced_counts.py RESULT NAME=VALUE...

RESULT holds the output of ``perfbench/bench.py --workload W --trace 1``,
whose last line is the result.  Exits 1 unless every repeat was correct,
no item failed, and each NAME metric reads exactly VALUE; exits 2 on bad
arguments.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) < 3 or not all("=" in arg for arg in argv[2:]):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        result = json.loads(fh.read().splitlines()[-1])
    want = {}
    for arg in argv[2:]:
        name, value = arg.split("=", 1)
        want[name] = float(value)
    metrics = result.get("metrics", {})
    got = {name: metrics.get(name, {}).get("value") for name in want}
    problems = []
    if not result.get("correct") or result.get("failed"):
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    problems += [f"{name} reads {got[name]}, pinned {value:g}"
                 for name, value in want.items() if got[name] != value]
    if problems:
        print("traced counts differ:", *problems, sep="\n  ")
        return 1
    print("traced counts hold:", got)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
