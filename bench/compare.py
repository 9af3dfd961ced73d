"""Print the ratios of a trajectory point: the change against its paired parent.

    python bench/compare.py bench/BENCH_x.json

Each end-to-end metric's ratio is the change's median over the parent's,
from the pairs measured together; "lower" counts the pairs in which the
change read lower. "digests" says whether the report digests of every seed
are equal on both sides.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    point = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    print(f"{point['commit'][:12]} against its parent {point['parent'][:12]}")
    for workload, entry in point["workloads"].items():
        print(f"{workload}: {entry['pairs']} pairs, digests "
              f"{'match' if entry['digests_match'] else 'DIFFER'} on seeds {entry['seeds']}")
        for metric, now in entry["change"]["metrics"].items():
            before = entry["parent"]["metrics"][metric]["median"]
            ratio = now["median"] / before if before else float("nan")
            lower = sum(r["change"][metric] < r["parent"][metric] for r in entry["runs"])
            print(f"  {metric}: {before:.4g} -> {now['median']:.4g}  ratio {ratio:.3f}"
                  f"  lower in {lower} of {len(entry['runs'])} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
