#!/usr/bin/env python3
"""Compare two BenchReport JSON files and flag regressions.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]
                           [--wall-threshold PCT] [--allow-missing]

Matches metrics by name and judges each by its unit's direction:

  - rate units ("req/s", "items/s", anything ending in "/s"): higher is
    better; a drop of more than the threshold is a regression.
  - cost units ("x" slowdown factors, "ns"/"ms"/"s" times, "KiB"/"MiB"
    sizes, "bytes"): lower is better; a rise past the threshold is a
    regression.
  - "bool": exact match required (gates like ordering_holds flipping from
    1 to 0 is a regression regardless of threshold).
  - "ratio" metrics named *speedup* or size_ratio*: higher is better (the
    codec's compression and replay-speed ratios, the ingest hub's
    ingest_speedup_* family). Other ratios stay informational — the unit
    is ambiguous (footprint_ratio is a cost).
  - degradation-ladder counters (names starting with "degr_", from the
    fault_soak bench's DegradationStats): lower is better — more
    escalations, shed records, or watchdog stalls at the same workload is
    a robustness regression even though the unit is a plain count.
  - anything else ("records", "count", "edges", ...): informational only —
    printed, never gated. These are workload-shape numbers, not
    performance.

A metric present in the baseline but missing from the current report is a
regression unless --allow-missing is given (renames should be caught, not
silently dropped from the trend). New metrics in the current report are
informational.

Tolerance classes: reports that declare `"timing": "wall-clock"` in their
config block (the wire_throughput bench) carry real-time measurements that
jitter with the host's scheduler, so they are judged against the looser
--wall-threshold (default 35%) instead of --threshold. Those benches
already gate on medians-of-reps internally; the values compared here ARE
the medians, and the wall tolerance only has to absorb cross-run machine
variance, not single-run noise. Virtual-time reports keep the tight
default — they are deterministic and deserve it.

Two wall-clock reports are only compared when they ran on the same number
of hardware threads: a parallel leg measured on 1 thread and on 4 differ
by design, not by regression. The count is read from the config key
"hw_threads" or "hardware_threads" (benches use either); when either
report lacks it, the comparison goes ahead.

Exit code: 0 when no regressions, 1 otherwise, 2 on bad input or on two
wall-clock reports from different hardware thread counts.
"""

import argparse
import json
import sys

RATE_SUFFIX = "/s"
COST_UNITS = {"x", "ns", "us", "ms", "s", "KiB", "MiB", "bytes"}
HW_THREAD_KEYS = ("hw_threads", "hardware_threads")


def direction(unit, name=""):
    """'up' = higher is better, 'down' = lower is better, 'bool', or None
    (informational)."""
    if unit.endswith(RATE_SUFFIX):
        return "up"
    if unit in COST_UNITS:
        return "down"
    if unit == "bool":
        return "bool"
    if unit == "ratio" and ("speedup" in name or name.startswith("size_ratio")):
        return "up"
    if name.startswith("degr_"):
        return "down"
    return None


def load(path):
    """Returns (metrics dict, is_wall_clock, hardware threads or None)."""
    try:
        with open(path) as f:
            doc = json.load(f)
        metrics = {m["name"]: (float(m["value"]), m["unit"])
                   for m in doc["metrics"]}
        config = doc.get("config", {})
        wall = config.get("timing") == "wall-clock"
        threads = next((float(config[k]) for k in HW_THREAD_KEYS
                        if k in config), None)
        return metrics, wall, threads
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(
        description="diff two BENCH_*.json files with a % threshold")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="allowed regression in percent (default 10)")
    ap.add_argument("--wall-threshold", type=float, default=35.0,
                    help="allowed regression for wall-clock reports "
                         "(config timing == 'wall-clock'; default 35)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="metrics missing from CURRENT are not regressions")
    args = ap.parse_args()

    base, base_wall, base_threads = load(args.baseline)
    cur, cur_wall, cur_threads = load(args.current)
    if base_wall and cur_wall and None not in (base_threads, cur_threads) \
            and base_threads != cur_threads:
        print(f"error: not comparing wall-clock reports across hardware "
              f"thread counts: {args.baseline} ran on {base_threads:g}, "
              f"{args.current} on {cur_threads:g}", file=sys.stderr)
        return 2
    threshold = args.wall_threshold if (base_wall or cur_wall) \
        else args.threshold

    regressions = []
    rows = []
    for name, (bval, bunit) in sorted(base.items()):
        if name not in cur:
            rows.append((name, bunit, bval, None, "MISSING"))
            if not args.allow_missing:
                regressions.append(name)
            continue
        cval, cunit = cur[name]
        d = direction(bunit if bunit == cunit else "", name)
        if d == "bool":
            ok = bval == cval
            rows.append((name, bunit, bval, cval, "ok" if ok else "FLIPPED"))
            if not ok:
                regressions.append(name)
            continue
        if d is None or bval == 0:
            rows.append((name, bunit, bval, cval, "info"))
            continue
        delta = (cval - bval) / bval * 100.0
        worse = -delta if d == "up" else delta
        status = f"{delta:+.1f}%"
        if worse > threshold:
            status += " REGRESSION"
            regressions.append(name)
        rows.append((name, bunit, bval, cval, status))
    for name in sorted(cur):
        if name not in base:
            rows.append((name, cur[name][1], None, cur[name][0], "new"))

    wide = max((len(r[0]) for r in rows), default=10)
    fmt_v = lambda v: "-" if v is None else f"{v:.6g}"
    print(f"{'metric':<{wide}} {'unit':>8} {'baseline':>14} "
          f"{'current':>14}  status")
    for name, unit, bval, cval, status in rows:
        print(f"{name:<{wide}} {unit:>8} {fmt_v(bval):>14} "
              f"{fmt_v(cval):>14}  {status}")

    cls = " [wall-clock tolerance]" if (base_wall or cur_wall) else ""
    if regressions:
        print(f"\n{len(regressions)} regression(s) past "
              f"{threshold:.1f}%{cls}: {', '.join(regressions)}")
        return 1
    print(f"\nno regressions (threshold {threshold:.1f}%{cls})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
