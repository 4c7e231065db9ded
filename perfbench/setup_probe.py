"""One set-up in a fresh interpreter: import bctsim, generate the workload's inputs, one warm-up call.

``run.py`` starts this script several times per run and times each from
process start to the line it prints; that median is ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import bctsim  # noqa: E402,F401
import bctsim.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workload = workloads.make(sys.argv[1], int(sys.argv[2]))
t2 = time.perf_counter()
workload.warm_up()
print(json.dumps({"import_s": t1 - t0, "warmup_s": time.perf_counter() - t2}), flush=True)
