#!/usr/bin/env python3
"""Alternating base/head pairs of one benchmark workload.

Usage: bench_pairs.py BASE_SUITE HEAD_SUITE WORKLOAD [--pairs N] [--seed S]
                      [--trace 0|1]

BASE_SUITE and HEAD_SUITE are two builds of perfsuite's `suite` binary
(the parent commit's and the change's). Each pair runs
`suite --workload WORKLOAD --seed S --trace 0` on both, each in its own
temporary output directory, and requires `"correct": true` from both. The
side that runs first alternates: base first in even pairs (0, 2, ...),
head first in odd ones, so effects of running order (page cache, CPU
clock, host load drifting within a pair) fall on both sides equally. Then, for every metric of the result JSON (the last stdout line),
it prints base and head median, min-max, how many pairs head won, and
whether the sides separate fully: every head run beats every base run
(the bar for claiming a gain). "Won" and "beats" follow the metric's
direction in BENCHMARK.json (lower is better when a metric is not listed
there); a tie is not a win. `--trace 1`
compares the traced run's per-layer metrics the same way.

Exits 1 if any run fails or reports `"correct": false`.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def higher_is_better():
    try:
        spec = json.loads(BENCHMARK.read_text())
    except OSError:
        return set()
    rows = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return {r["name"] for r in rows if r.get("better") == "higher"}


def run(suite, args, out):
    cmd = [suite, *args, "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit(f"{' '.join(cmd)} is not correct:\n{lines[-1]}")
    return {k: m["value"] for k, m in result["metrics"].items() if isinstance(m.get("value"), (int, float))}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--trace", a.trace]

    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(a.pairs):
            order = (("base", a.base), ("head", a.head))
            for side, suite in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run(suite, args, f"{tmp}/{side}{i}"))
            print(f"pair {i + 1}/{a.pairs} done", file=sys.stderr)

    higher = higher_is_better()
    print(f"{a.workload} seed {a.seed} trace {a.trace}: {a.pairs} pairs (base first in even pairs, head first in odd)")
    print(f"{'metric':<32} {'base median':>14} {'base min-max':>27} {'head median':>14} {'head min-max':>27}  head won  separate")
    names = [k for k in runs["base"][0] if all(k in r for r in runs["base"] + runs["head"])]
    for name in names:
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        better = (lambda h, b: h > b) if name in higher else (lambda h, b: h < b)
        won = sum(better(h, b) for h, b in zip(head, base))
        separate = all(better(h, b) for h in head for b in base)
        span = lambda xs: f"{min(xs):.6g}-{max(xs):.6g}"
        print(
            f"{name:<32} {statistics.median(base):>14.6g} {span(base):>27} "
            f"{statistics.median(head):>14.6g} {span(head):>27}  {f'{won}/{a.pairs}':>8}  {'yes' if separate else 'no'}"
        )


if __name__ == "__main__":
    main()
