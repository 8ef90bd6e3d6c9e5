"""Fixed-seed benchmark of the pderom pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, seeds 0 and 1
    python3 perfbench/run.py --workload burgers-siren --seed 3 --seconds 30
    python3 perfbench/run.py --workload diffusion-hyper --trace 1

Each workload round is the whole pipeline (generate, save/load, train,
reload, forecast) in a fresh process with BLAS held to one thread; see
``pipeline.py``.  A run repeats rounds for ``--seconds`` seconds (at
least one) and reports medians.  It also samples process set-up several
times.  With ``--trace 1`` every round is followed by a traced round of
the same seed, which gives the per-layer metrics; the traced round must
reproduce the untraced ``train_loss`` and ``ic_rnmse`` bit for bit.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every output
check passed.  A full record of each run (environment, every round,
the per-layer table, tracing overhead) goes to
``.perfbench_out/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("diffusion-hyper", "burgers-siren", "diffusion-siren-sparse")
SETUP_SAMPLES = 9  # set-up times per run: one per round, the rest from probes
RECORDED = ("train_loss", "ic_rnmse", "horizon_rnmse")  # printed, not bounded
RUN_LIMIT_S = 170.0  # a run must finish well inside three minutes


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> dict:
    """Run one round in a fresh process; set-up is timed to its ``ready`` line."""
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(OUT / f"round-{workload}-{seed}")]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    # unbuffered, so that reading the first line reads nothing past it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            bufsize=0)
    try:
        first = proc.stdout.readline().decode()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} round ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchmarkError(f"{workload} round exited with code {proc.returncode}")
    result = json.loads(rest.decode().strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def median(values):
    return statistics.median(values)


def summarize(rounds: list) -> dict:
    """End-to-end metrics of a list of rounds of one seed."""
    m = [r["metrics"] for r in rounds]
    return {
        "gen_s": median([x["gen_s"] for x in m]),
        "io_s": median([x["io_s"] for x in m]),
        "train_snapshots_per_s": median([x["train_snapshots_per_s"] for x in m]),
        "forecast_s": median([t for x in m for t in x["forecast_s_each"]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "train_loss": m[0]["train_loss"],
        "ic_rnmse": median(m[0]["ic_rnmse_each"]),
        "horizon_rnmse": median(m[0]["horizon_rnmse_each"]),
    }


def complete(r: dict) -> bool:
    return not any(r["ops"].values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    plain, traced, setup = [], [], []
    while True:
        t0 = time.perf_counter()
        # a set-up probe before each round spreads the samples over the run
        setup.append(child(workload, seed, deadline, setup_only=True)["setup_s"])
        plain.append(child(workload, seed, deadline))
        if trace:
            traced.append(child(workload, seed, deadline, trace=True))
        took = time.perf_counter() - t0
        now = time.perf_counter()
        if now - started + took > seconds or now + took > deadline:
            break
    setup += [r["setup_s"] for r in plain]
    while len(setup) < SETUP_SAMPLES:
        setup.append(child(workload, seed, deadline, setup_only=True)["setup_s"])

    rounds = plain + traced
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for msgs in r["ops"].values() if msgs)
    checks = {}
    for r in rounds:
        for op, msgs in r["ops"].items():
            key = f"{op} ({'traced' if r['traced'] else 'untraced'})"
            seen = checks.setdefault(key, [])
            seen.extend(m for m in msgs if m not in seen)

    def outputs(r):
        m = r["metrics"]
        return (m.get("train_loss"), m.get("ic_rnmse_each"))

    good = [r for r in plain if complete(r)]
    # rounds whose gen and train succeeded measured every metric
    measured = [r for r in plain if not (r["ops"]["gen"] or r["ops"]["train"])]
    checks["rounds reproduce train_loss and ic_rnmse bitwise"] = [
        f"round {i} differs from round 0" for i, r in enumerate(good)
        if outputs(r) != outputs(good[0])
    ]
    if trace:
        checks["traced rounds reproduce the untraced outputs bitwise"] = [
            f"traced round {i} differs" for i, r in enumerate(traced)
            if complete(r) and good and outputs(r) != outputs(good[0])
        ]
        checks["every wrapped binding is hit"] = sorted(
            {f"never called: {b}" for r in traced for b in r["unhit"]}
        )

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "environment": plain[0]["environment"],
        "rounds": len(plain), "attempted": attempted, "failed": failed,
        "checks": checks, "setup_s_samples": setup,
        "shape_changes": sorted({c for r in rounds for c in r.get("shape_changes", [])}),
        "round_records": [{k: r[k] for k in ("traced", "ops", "metrics", "peak_rss_mb",
                                             "setup_s")} for r in rounds],
    }
    if measured:
        record["end_to_end"] = dict(summarize(measured), setup_s=median(setup))
    traced_good = [r for r in traced if complete(r)]
    if traced_good:
        record["traced_end_to_end"] = summarize(traced_good)
        record["tracing_overhead"] = {
            k: record["traced_end_to_end"][k] - record["end_to_end"][k]
            for k in ("gen_s", "io_s", "train_snapshots_per_s", "forecast_s",
                      "peak_rss_mb")
        } if measured else {}
        keys = sorted({k for r in traced_good for k in r["layers"]})
        record["per_layer"] = {
            k: median([r["layers"].get(k, 0) for r in traced_good]) for k in keys
        }
        # a metric may be absent only when its layer is off this workload's path
        unreached = set(traced_good[0]["unreached"])
        checks["every per-layer metric the workload reaches is measured"] = [
            f"missing: {m['name']}" for m in spec["per_layer"]
            if m["name"] not in record["per_layer"]
            and ".".join(m["name"].split(".")[1:3]) not in unreached
        ]
    record["correct"] = failed == 0 and not any(checks.values()) and bool(good)
    return record


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def report(record: dict, spec: dict) -> dict:
    """Print a run's checks and metrics; return those for the final JSON line."""
    env = record["environment"]
    print(f"== {record['workload']}  seed {record['seed']}  rounds {record['rounds']}"
          f"{' (+ traced)' if record['trace'] else ''}  commit {record['commit']}")
    print(f"   nproc {env['nproc']}  BLAS {env['blas']} threads {env['blas_threads']}"
          f"  numpy {env['numpy']}  python {env['python']}")
    for name, msgs in record["checks"].items():
        print(f"   check {name}: {'ok' if not msgs else 'FAILED: ' + '; '.join(msgs)}")
    for change in record["shape_changes"]:
        print(f"   warning: reloaded model changes a shape with identical bits: {change}")
    share = record["failed"] / max(record["attempted"], 1)
    print(f"   operations: {record['attempted']} attempted, {record['failed']} failed "
          f"({100 * share:.1f}%)")
    e2e = record.get("end_to_end", {})
    units = {m["name"]: m for m in spec["end_to_end"]}
    for name, value in e2e.items():
        m = units.get(name, {"unit": "1"})
        kind = "recorded, not bounded" if name in RECORDED else f"{m['better']} is better"
        print(f"   {name} = {value:.6g} {m['unit']} ({kind})")
    for name, value in record.get("tracing_overhead", {}).items():
        print(f"   tracing overhead {name} = {value:+.6g}")
    if record["trace"]:
        # the checks above fail the run when a reached metric is missing
        metrics = {m["name"]: {"value": record.get("per_layer", {}).get(m["name"], 0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        for name, v in metrics.items():
            print(f"   {name} = {v['value']:.6g} {v['unit']}")
        return metrics
    return {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"] if m["name"] in e2e}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: every workload on --seed and --seed+1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measurement time per workload run "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that child() stops the round it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pderom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} needs src/pderom and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    OUT.mkdir(exist_ok=True)

    if args.workload:
        runs = [(args.workload, args.seed)]
    else:
        runs = [(w, s) for s in (args.seed, args.seed + 1) for w in WORKLOADS]
    results = {}
    correct, attempted, failed = True, 0, 0
    try:
        for workload, seed in runs:
            record = run_workload(workload, seed, seconds, bool(args.trace), spec)
            name = f"result-{workload}-{seed}-trace{args.trace}.json"
            (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
            results[f"{workload}/{seed}"] = report(record, spec)
            correct &= record["correct"]
            attempted += record["attempted"]
            failed += record["failed"]
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    metrics = results.popitem()[1] if args.workload else results
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
