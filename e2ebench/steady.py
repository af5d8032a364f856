#!/usr/bin/env python3
"""Repeat/steadiness report for the repository benchmark.

Runs ``e2ebench/run.py`` N times on one workload, seed after seed, and
prints each metric's median, quartiles and spread (interquartile
distance as a share of the median).  An end-to-end metric whose spread
exceeds its ``BENCHMARK.json`` bound is flagged ``OVER``; one above a
third of it is flagged ``wide``.  Every run measures for the
``run_seconds`` of ``BENCHMARK.json`` and reports the end-to-end
metrics (``--trace 0``).

    python3 e2ebench/steady.py --workload solve-cg-mesh --runs 10 \\
        --save .e2ebench-work/cg-a.json
    python3 e2ebench/steady.py --workload solve-cg-mesh --runs 10 \\
        --seed0 101 --against .e2ebench-work/cg-a.json

``--against`` compares medians with a saved set and flags a metric
whose median is worse by more than its bound.  Runs whose backend or
``nproc`` differ are never compared: the report refuses them.
Exit code 0 when every run passed its checks and nothing is flagged.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = pathlib.Path(__file__).resolve().with_name("run.py")
#: Manifest fields that must agree before runs are compared.
COMPARABLE = ("backend", "nproc")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    manifest = next(
        (json.loads(l[len("manifest "):]) for l in lines if l.startswith("manifest ")),
        None,
    )
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return {"seed": seed, "exit": proc.returncode, "manifest": manifest,
            "result": result, "wall_s": time.monotonic() - t0}


def refuse_mixed(runs: list[dict]) -> str | None:
    seen = {
        tuple((r["manifest"] or {}).get(k) for k in COMPARABLE) for r in runs
    }
    if len(seen) > 1:
        return f"runs differ in {'/'.join(COMPARABLE)}: {sorted(map(str, seen))}"
    return None


def summarize(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in runs:
        for name, m in (r["result"] or {}).get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "median": med, "q1": q1, "q3": q3, "unit": units[name],
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(vals),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--save", type=pathlib.Path)
    p.add_argument("--against", type=pathlib.Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for i in range(args.runs):
        r = one_run(args.workload, args.seed0 + i, spec["run_seconds"])
        ok = r["exit"] == 0 and r["result"] and r["result"]["correct"]
        print(f"run seed={r['seed']}: {'ok' if ok else 'FAILED'} (exit {r['exit']}) "
              f"in {r['wall_s']:.1f} s", flush=True)
        runs.append(r)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps({"workload": args.workload, "runs": runs}))
    baseline = json.loads(args.against.read_text()) if args.against else None
    refusal = refuse_mixed(runs + (baseline["runs"] if baseline else []))
    if refusal:
        print(f"refusing to compare: {refusal}")
        return 2

    flagged = sum(1 for r in runs if not (r["result"] and r["result"]["correct"]))
    now = summarize(runs)
    before = summarize(baseline["runs"]) if baseline else {}
    print(f"\n{args.workload}: {len(runs)} runs, seeds {args.seed0}.."
          f"{args.seed0 + args.runs - 1}")
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}"
          f"{'bound':>7}  flag")
    for name, s in now.items():
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and s["spread"] > bound:
            flag = "OVER"
        elif bound is not None and s["spread"] > bound / 3:
            flag = "wide"
        if name in before and bound is not None:
            base = before[name]["median"]
            worse = (s["median"] - base) / abs(base) if base else 0.0
            if bounds[name]["better"] == "higher":
                worse = -worse
            flag += f" vs-saved {worse:+.3f}" + (" REGRESSED" if worse > bound else "")
            flagged += worse > bound
        flagged += flag.startswith("OVER")
        print(f"{name:<34}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
              f"{100 * s['spread']:>7.1f}%"
              f"{'' if bound is None else f'{100 * bound:.0f}%':>7}  {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
