"""One benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR [--toy]

Imports the sources and builds the workload's set-up as ``run.py`` does
before its first timed call, then prints the host seconds from this
process's start until then.  ``run.py`` starts several of these and
reports the median as ``setup_s``.
"""

import sys
from pathlib import Path

import run


def main(argv) -> int:
    name, seed, workdir, *toy = argv
    workloads = run.import_repro()
    spec = workloads.WORKLOADS[name]
    if toy == ["--toy"]:
        spec = spec.at_toy_scale()
    workloads.Bench(spec, int(seed), Path(workdir))
    print(run.since_process_start())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
