"""Measure the benchmark's spread over seeds and write its baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload this runs ``run.py`` once per seed (0 .. SEEDS-1),
SETS times over, then once more traced on seed 0.  Per end-to-end
metric it records each set's median and quartiles and the spread
(interquartile distance over the median), which must stay within the
metric's bound in ``BENCHMARK.json``; and the change of the second
set's median against the first, in the metric's worse direction.  The
traced run supplies the full per-layer table and the tracing overhead.
It prints the figures and exits non-zero if a spread or a median change
exceeds its bound (``setup_s`` only has the median-change bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, RECORDED, WORKLOADS  # noqa: E402

SEEDS = 10  # seeds 0 .. 9, as the acceptance check runs them
SETS = 2  # a second set shows how far the medians move between sets


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with code {proc.returncode}")
    return json.loads((OUT / f"result-{workload}-{seed}-trace{trace}.json").read_text())


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, action="append")
    p.add_argument("--out", help="baseline file to write")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    baseline = {"run_seconds": seconds, "seeds": list(range(SEEDS)),
                "workloads": {}}
    ok = True
    for workload in args.workload or WORKLOADS:
        sets = []
        for _ in range(SETS):
            records = [run(workload, s, seconds, 0) for s in range(SEEDS)]
            sets.append(records)
        traced = run(workload, 0, seconds, 1)
        entry = {"why": whys[workload], "end_to_end": {}, "recorded": {}}
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            name = m["name"]
            per_set = [stats([r["end_to_end"][name] for r in recs]) for recs in sets]
            first = per_set[0]["median"]
            worse = [(s["median"] - first) / first * (1 if m["better"] == "lower" else -1)
                     for s in per_set[1:]]
            entry["end_to_end"][name] = dict(
                unit=m["unit"], better=m["better"], bound=m["bound"], sets=per_set,
                second_median_worse_by=worse,
            )
            spreads = [s["spread"] for s in per_set]
            bad = (name != "setup_s" and max(spreads) > m["bound"]) or any(
                w > m["bound"] for w in worse)
            ok &= not bad
            print(f"   {name:24s} median {first:10.5g} {m['unit']:4s} spread "
                  + " ".join(f"{x:.3f}" for x in spreads)
                  + (f"  second median worse by {worse[0]:+.3f}" if worse else "")
                  + f"  bound {m['bound']}" + ("  EXCEEDED" if bad else ""))
        for name in RECORDED:
            entry["recorded"][name] = stats([r["end_to_end"][name] for r in sets[0]])
            print(f"   {name:24s} median {entry['recorded'][name]['median']:10.5g} "
                  f"(recorded, not bounded) spread {entry['recorded'][name]['spread']:.3f}")
        entry["environment"] = traced["environment"]
        entry["commit"] = traced["commit"]
        entry["tracing_overhead"] = traced.get("tracing_overhead")
        entry["traced_checks"] = traced["checks"]
        entry["per_layer"] = traced.get("per_layer")
        baseline["workloads"][workload] = entry
        if not traced["correct"]:
            ok = False
            print("   traced run FAILED its checks")
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
