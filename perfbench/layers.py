"""Reference timings of single layers at fixed sizes.

    python3 perfbench/layers.py

Times walsh_transform, serialize_truth_table, parse_truth_table, analyze
and psap_bent on n-variable inputs, n in SIZES (a seeded M-M bent table;
a seeded balanced theta for psap_bent), and prints the median of REPS
calls per cell as a markdown table (psap_bent at n = 24 runs once: one
call takes about a minute).  Each timed call gets a fresh
BooleanFunction, so no cached spectrum is reused.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bentkit as bk  # noqa: E402

import checks  # noqa: E402
from run import balanced_theta, random_mm  # noqa: E402

REPS = 5
SIZES = (8, 12, 16, 20, 24)


def timed(fn, prepare, reps: int) -> float:
    """Median milliseconds of fn(prepare()) over reps calls."""
    samples = []
    for _ in range(reps):
        arg = prepare()
        t0 = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def main() -> int:
    print("| n | walsh_transform | serialize | parse | analyze | psap_bent |")
    print("|---|---|---|---|---|---|")
    for n in SIZES:
        rng = random.Random(n)
        k = n // 2
        mask = bk.BooleanFunction(n, random_mm(k, rng)).mask
        text = checks.encode(checks.from_mask(mask, n))
        theta = balanced_theta(k, rng)
        field = bk.GaloisField(k)

        def fresh():
            return bk.BooleanFunction(n, mask)

        cells = [
            timed(bk.walsh_transform, fresh, REPS),
            timed(bk.serialize_truth_table, fresh, REPS),
            timed(bk.parse_truth_table, lambda: text, REPS),
            timed(bk.analyze, fresh, REPS),
            timed(lambda th: bk.psap_bent(field, th), lambda: theta,
                  1 if n >= 24 else REPS),
        ]
        shown = [f"{c / 1e3:.3g} s" if c >= 1e3 else f"{c:.3g} ms" for c in cells]
        print(f"| {n} | " + " | ".join(shown) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
