"""Opt-in refinement study of the line counterexample at n = 400, 800, 1600 and 3200.

Usage, from the repository root:

    python scripts/line_study.py

Runs ``run_line_counterexample(400, levels=4)`` once and prints one JSON line:
the wall seconds, the peak RSS, every growth ratio and the log-log slope with
its window, and the peak RSS the study adds over the RSS before it, per
``n * m * 8`` bytes of the largest level's cost matrix. That factor is what a
size cap stated in peak bytes needs. Exits 1 when a window fails or the peak
RSS reaches PEAK_CAP_MB.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorot.experiments import run_line_counterexample  # noqa: E402

BASE, LEVELS = 400, 4
PEAK_CAP_MB = 135.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    before = peak_rss_mb()
    start = time.perf_counter()
    report = run_line_counterexample(BASE, levels=LEVELS)
    wall = time.perf_counter() - start
    peak = peak_rss_mb()
    n = BASE << (LEVELS - 1)
    windows = {
        name: {"value": s.value, "window": list(s.window), "ok": s.window[0] <= s.value <= s.window[1]}
        for name, s in report.scalars.items() if s.window is not None
    }
    ok = all(w["ok"] for w in windows.values()) and peak < PEAK_CAP_MB
    print(json.dumps({
        "n": [BASE << level for level in range(LEVELS)],
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak, 1),
        "rss_before_mb": round(before, 1),
        "peak_bytes_per_nm8": round((peak - before) * 2**20 / (n * n * 8), 3),
        "windows": windows,
        "ok": ok,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
