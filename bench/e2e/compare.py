#!/usr/bin/env python3
"""Compare two sets of tram_e2e results: a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result JSONs written by tram_e2e --json (run.py keeps
them under .bench_build/e2e/results/). Results pair up by workload and
seed; run the pairs alternately, parent first in one pair and change first
in the next, on one host. For every workload x metric the verdict follows
the choosing-metrics rule:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and its median beats the parent's by more than the
              parent's interquartile range;
  regressed   a gated metric whose median is worse than the parent's by
              more than its bound in BENCHMARK.json (a metric without a
              bound: the improved rule, mirrored);
  unresolved  fewer than 10 pairs, more failed operations than the
              parent, or a gated metric whose run-to-run spread exceeds its
              bound (unless every change run beats every parent run);
  unchanged   otherwise.

Results from different hosts (nproc, CPU model) or build configurations
are refused. Every metric a result carries is compared, in the direction
the result states; exits 1 when a gated metric regressed, 2 on bad input.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def load(directory):
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            result = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise SystemExit(f"{path}: {e}")
        if "end_to_end" in result and "host" in result:
            result["_path"] = str(path)
            out.append(result)
    if not out:
        raise SystemExit(f"no tram_e2e results in {directory}")
    return out


def check_same_host(results):
    """Pairs are only meaningful on one host with one build."""
    keys = ("nproc", "cpu_model", "build_type", "tram_trace")
    first = results[0]["host"]
    for r in results[1:]:
        for k in keys:
            if r["host"].get(k) != first.get(k):
                print(f"refusing to compare: {r['_path']} has {k}="
                      f"{r['host'].get(k)!r}, {results[0]['_path']} has "
                      f"{first.get(k)!r}", file=sys.stderr)
                sys.exit(2)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def relative_iqr(v):
    """Spread as the driver measures it: IQR over the median."""
    q1, q3 = quartiles(v)
    m = statistics.median(v)
    return (q3 - q1) / abs(m) if m else 0.0


def verdict(p, c, better, bound, more_failures):
    """Classify one workload x metric from paired parent/change values."""
    n = len(p)
    if n < MIN_PAIRS:
        return f"unresolved ({n} pairs < {MIN_PAIRS})"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    iqr = q3 - q1
    gain = sign * (mc - mp)
    if wins >= 0.9 * n and gain > iqr:
        return "unresolved (more failed operations)" if more_failures \
            else "improved"
    if bound is None:
        return "regressed" if losses >= 0.9 * n and -gain > iqr \
            else "unchanged"
    spread = max(relative_iqr(p), relative_iqr(c))
    all_better = (min(c) > max(p)) if sign > 0 else (max(c) < min(p))
    if spread > bound and not all_better:
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    if mp and -gain / abs(mp) > bound:
        return "regressed"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="directory of parent-commit results")
    ap.add_argument("change", help="directory of change results")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    check_same_host(parent + change)
    # Traced runs carry the per-layer time split on top; they pair only
    # with traced runs.
    groups = {}
    for side, results in (("parent", parent), ("change", change)):
        for r in results:
            if not r.get("smoke"):
                key = (r["workload"], r.get("traced", False))
                groups.setdefault(key, ({}, {}))[side == "change"][r["seed"]] = r

    regressed = False
    print(f"{'workload':24s} {'metric':30s} {'parent median [q1, q3]':>34s}"
          f" {'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}"
          f"  verdict")
    for (workload, traced), (ps, cs) in sorted(groups.items()):
        pairs = [(ps[s], cs[s]) for s in sorted(set(ps) & set(cs))]
        if not pairs:
            continue
        label = workload + (" [traced]" if traced else "")
        failed_p = sum(a["failed"] for a, _ in pairs)
        failed_c = sum(b["failed"] for _, b in pairs)
        parent_first = sum(1 for a, b in pairs
                           if a.get("started_unix", 0) < b.get("started_unix", 0))
        for section in ("end_to_end", "per_layer"):
            for name, meta in pairs[0][0][section].items():
                bound = bounds.get(name) if section == "end_to_end" else None
                vals = [(a[section].get(name, {}).get("value"),
                         b[section].get(name, {}).get("value"))
                        for a, b in pairs]
                vals = [(a, b) for a, b in vals
                        if a is not None and b is not None]
                if not vals:
                    continue
                p = [a for a, _ in vals]
                c = [b for _, b in vals]
                v = verdict(p, c, meta["better"], bound, failed_c > failed_p)
                regressed |= bound is not None and v == "regressed"
                mp, mc = statistics.median(p), statistics.median(c)
                sign = 1.0 if meta["better"] == "higher" else -1.0
                wins = sum(1 for a, b in vals if sign * (b - a) > 0)
                delta = f"{(mc - mp) / abs(mp):+.1%}" if mp else "n/a"
                pq, cq = quartiles(p), quartiles(c)
                print(f"{label:24s} {name:30s} "
                      f"{f'{mp:.4g} [{pq[0]:.4g}, {pq[1]:.4g}]':>34s} "
                      f"{f'{mc:.4g} [{cq[0]:.4g}, {cq[1]:.4g}]':>34s} "
                      f"{delta:>8s} {f'{wins}/{len(vals)}':>6s}  {v}")
        print(f"{label:24s} {len(pairs)} pairs, parent ran first in "
              f"{parent_first}; failed operations {failed_p} -> {failed_c}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
