"""Peak memory of one engine call, measured in a fresh process.

    python3 perfbench/rss_child.py <input dir> <workload> <engine>

Sets up the workload's inputs from the files in ``<input dir>``, runs the
engine once and prints one JSON line: the process's peak resident set
size (``ru_maxrss``) in KiB and the run's accepted count, digest and
counters, for the parent to check against the workload's pins.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from workload import ENGINES, BenchError, call_engine, observed, read_canon, setup, workload


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[2] not in ENGINES:
        print(__doc__, file=sys.stderr)
        return 2
    directory, name, engine = Path(argv[0]), argv[1], argv[2]
    inputs, _ = setup(directory, workload(name)["order"])
    result = call_engine(engine, inputs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kib": peak_kib, **observed(result, read_canon(directory))}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"rss_child: {exc}", file=sys.stderr)
        sys.exit(2)
