"""One set-up sample in a fresh interpreter; run by run.py, not by hand.

Times importing chorkit from the checkout's src/ plus building the
workload's inputs, with kernel samples before and after for drift
correction, and prints {"seconds": ..., "rate": ...} as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import kernel

SAMPLES = 5


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    rates = [kernel.sample() for _ in range(SAMPLES)]
    t0 = time.perf_counter()
    import chorkit.cli  # noqa: F401  (the CLI pulls in every module)
    import inputs

    inputs.build(workload, seed)
    dt = time.perf_counter() - t0
    rates += [kernel.sample() for _ in range(SAMPLES)]
    print(json.dumps({"seconds": dt, "rate": statistics.median(rates)}))


if __name__ == "__main__":
    main()
