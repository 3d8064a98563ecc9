#!/usr/bin/env python3
"""Compare a BENCH_*.json run against a committed baseline and gate
regressions.

Usage:
  scripts/compare_bench.py BASELINE.json CURRENT.json
      [--time-tolerance=0.10] [--io-tolerance=0.10] [--show-phases]
      [--p99-op=OPNAME] [--p99-tolerance=1.0]

Rows are matched by (series, threads, shards, pairs). Two gates per matched
row:

  * pairs/sec  — pairs / (wall_ms / 1000); a drop of more than
                 --time-tolerance fails. Wall clock is noisy at small
                 SDJ_BENCH_SCALE, so callers pick the tolerance (check.sh
                 uses a loose one for its 5%-scale smoke run).
  * node_io    — deterministic for a given scale, so any growth beyond
                 --io-tolerance fails.

A third, opt-in gate targets tail latency: --p99-op=serve_slice compares the
named phase's p99_us between the runs' metrics blocks and fails when the
current p99 exceeds the baseline by more than --p99-tolerance (a ratio;
the default 1.0 allows up to a 2x growth — the phase histograms are
log-bucketed, so one bucket of drift stays within that). A row whose
baseline lacks the metrics block or has a zero baseline p99 is skipped,
but a baseline p99 with no current-side value is a regression — a run
that silently stopped reporting the gated phase must not pass.

The two files must have been produced at the same SDJ_BENCH_SCALE; comparing
across scales is a usage error. Likewise, when both files carry a
"kernel_isa" stamp (the SIMD dispatch tier the run resolved, DESIGN.md §15)
the stamps must match — wall-clock across different kernel paths is not a
regression signal. Files written before the stamp existed lack the field
and are compared without the check. The same refusal applies to shard
counts (DESIGN.md §18): when the sets of per-row "shards" values differ
between the two files, the runs came from different bench configurations
and comparing them is a usage error. --show-phases prints the current
run's per-phase latency block (DESIGN.md §12) for every matched row.

Exit codes: 0 ok, 1 regression detected, 2 usage/schema error.
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def row_key(row):
    return (
        row["series"],
        row.get("threads", 1),
        row.get("shards", 1),
        row["pairs"],
    )


def keyed_rows(doc):
    """Rows keyed by row_key plus an occurrence index.

    Several rows can share a row_key (at small scales the first three
    Even/DepthFirst rows all stop at one pair), so rows with equal keys are
    matched by their order of occurrence instead of collapsing into one.
    """
    keyed, seen = {}, {}
    for row in doc.get("rows", []):
        key = row_key(row)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        keyed[key + (occurrence,)] = row
    return keyed


def shard_counts(doc):
    return sorted({r.get("shards", 1) for r in doc.get("rows", [])})


def pairs_per_sec(row):
    wall_s = row["wall_ms"] / 1000.0
    if wall_s <= 0.0:
        return float("inf")
    return row["pairs"] / wall_s


def show_phases(row):
    metrics = row.get("metrics")
    if not metrics:
        print("    (no metrics block)")
        return
    for op, h in metrics.items():
        if h["count"] == 0:
            continue
        print(
            f"    {op:<15} count={h['count']:<8} "
            f"total_ms={h['total_ms']:<10.3f} p50_us={h['p50_us']:<8.1f} "
            f"p95_us={h['p95_us']:<8.1f} p99_us={h['p99_us']:<8.1f} "
            f"max_us={h['max_us']:.1f}"
        )


def p99_us(row, op):
    metrics = row.get("metrics")
    if not metrics or op not in metrics:
        return None
    return metrics[op].get("p99_us")


def main(argv):
    time_tolerance = 0.10
    io_tolerance = 0.10
    p99_op = None
    p99_tolerance = 1.0
    phases = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--time-tolerance="):
            time_tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--io-tolerance="):
            io_tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--p99-op="):
            p99_op = arg.split("=", 1)[1]
        elif arg.startswith("--p99-tolerance="):
            p99_tolerance = float(arg.split("=", 1)[1])
        elif arg == "--show-phases":
            phases = True
        elif arg.startswith("--"):
            print(f"compare_bench: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    baseline, current = load(paths[0]), load(paths[1])
    if baseline.get("scale") != current.get("scale"):
        print(
            f"compare_bench: scale mismatch — baseline "
            f"{baseline.get('scale')} vs current {current.get('scale')}; "
            f"rerun at the baseline's SDJ_BENCH_SCALE",
            file=sys.stderr,
        )
        return 2
    base_isa = baseline.get("kernel_isa")
    cur_isa = current.get("kernel_isa")
    if base_isa is not None and cur_isa is not None and base_isa != cur_isa:
        print(
            f"compare_bench: kernel_isa mismatch — baseline ran the "
            f"{base_isa} dispatch path, current ran {cur_isa}; rerun with "
            f"SDJ_KERNEL={base_isa} (or regenerate the baseline) before "
            f"comparing wall-clock",
            file=sys.stderr,
        )
        return 2

    # Sharded rows (DESIGN.md §18) only gate against rows with the same
    # shard count: runs whose shard-count sets differ were produced by
    # different bench configurations, so refuse like a cross-ISA compare.
    base_shards, cur_shards = shard_counts(baseline), shard_counts(current)
    if base_shards != cur_shards:
        print(
            f"compare_bench: shard-count mismatch — baseline rows ran at "
            f"shards={base_shards}, current at shards={cur_shards}; "
            f"regenerate the baseline before comparing",
            file=sys.stderr,
        )
        return 2

    base_rows = keyed_rows(baseline)
    cur_rows = keyed_rows(current)
    if not base_rows or not cur_rows:
        print("compare_bench: no rows to compare", file=sys.stderr)
        return 2

    regressions = 0
    matched = 0
    for key, base in sorted(base_rows.items()):
        cur = cur_rows.get(key)
        if cur is None:
            print(f"MISSING  {key}: row absent from current run")
            regressions += 1
            continue
        matched += 1
        series, threads, shards, pairs, occurrence = key
        label = f"{series} t={threads} s={shards} pairs={pairs}"
        if occurrence > 0:
            label += f" #{occurrence + 1}"

        base_pps, cur_pps = pairs_per_sec(base), pairs_per_sec(cur)
        pps_drop = (base_pps - cur_pps) / base_pps if base_pps > 0 else 0.0
        base_io, cur_io = base["node_io"], cur["node_io"]
        io_growth = (cur_io - base_io) / base_io if base_io > 0 else 0.0

        p99_note = ""
        p99_growth = None
        p99_missing = False
        if p99_op is not None:
            base_p99, cur_p99 = p99_us(base, p99_op), p99_us(cur, p99_op)
            if base_p99 and cur_p99 is None:
                # The baseline gated this phase but the current run stopped
                # reporting it — silently skipping would hide a disabled or
                # renamed metric forever. Only a missing/zero *baseline* p99
                # opts the row out.
                p99_missing = True
                p99_note = f"  {p99_op} p99_us {base_p99:.0f} -> (absent)"
            elif base_p99 and cur_p99 is not None:
                p99_growth = (cur_p99 - base_p99) / base_p99
                p99_note = f"  {p99_op} p99_us {base_p99:.0f} -> {cur_p99:.0f}"

        verdict = "ok"
        if p99_missing:
            verdict = f"REGRESSION {p99_op} p99 missing from current run"
            regressions += 1
        elif pps_drop > time_tolerance:
            verdict = f"REGRESSION pairs/sec -{pps_drop:.1%}"
            regressions += 1
        elif io_growth > io_tolerance:
            verdict = f"REGRESSION node_io +{io_growth:.1%}"
            regressions += 1
        elif p99_growth is not None and p99_growth > p99_tolerance:
            verdict = f"REGRESSION {p99_op} p99 +{p99_growth:.1%}"
            regressions += 1
        print(
            f"{verdict:<28} {label:<44} "
            f"pairs/sec {base_pps:>12.0f} -> {cur_pps:>12.0f}  "
            f"node_io {base_io} -> {cur_io}{p99_note}"
        )
        if phases:
            show_phases(cur)

    if matched == 0:
        print("compare_bench: no matching rows", file=sys.stderr)
        return 2
    if regressions:
        print(f"compare_bench: {regressions} regression(s)", file=sys.stderr)
        return 1
    print(f"compare_bench: {matched} row(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
