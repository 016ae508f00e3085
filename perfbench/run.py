"""Entry point of the live TPC-W benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload ordering --seed 1 --seconds 15 --trace 0

Both workloads, end to end and then layer by layer::

    for trace in 0 1; do for workload in browsing ordering; do
        python3 perfbench/run.py --workload $workload --seed 1 \
            --seconds 15 --trace $trace; done; done

See ``bench.py`` for what a run measures and ``BENCHMARK.json`` for
the metrics it prints.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program sources at {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SOURCE)
    from bench import main

    sys.exit(main(sys.argv[1:]))
