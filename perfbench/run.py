"""oseg benchmark: one workload, one seed, passes in fresh interpreters.

    python3 perfbench/run.py --workload catalog-o4 --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` runs untraced passes, each
in its own interpreter, until their timed sections add up to
``--seconds`` (at least ``MIN_PASSES``), and reports the end-to-end
metrics as medians over the passes.  ``--trace 1`` runs one untraced and
one traced pass of the same inputs and reports the per-layer metrics.
Every pass checks its outputs against the goldens; the last line of
stdout is the JSON result, and the exit code is 1 when a gate failed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import product

from bench_pass import OUT_DIR
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
#: stop starting passes this long after the run began, to end within 180 s
LAUNCH_DEADLINE_S = 100

def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def _pass(workload: str, seed: int, size: int | None, trace: bool) -> dict:
    """Run one pass in a fresh interpreter; its result plus ``setup_s``."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "bench_pass.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", str(size or WORKLOADS[workload].size),
        "--trace", str(int(trace)),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["t_ready"] - t_spawn) / result["speed"]
    return result


def _jobs2_balance(row_ns: list) -> float:
    """Slowest chunk over mean chunk time, for ``verify --jobs 2``'s rows[i::2]."""
    order = len(row_ns[0][0])
    position = {row: i for i, row in enumerate(product(range(order), repeat=order))}
    chunks = [0, 0]
    for row, ns in row_ns:
        chunks[position[tuple(row)] % 2] += ns
    mean = sum(chunks) / 2
    return max(chunks) / mean if mean else 0.0


def _item_stats(passes: list) -> tuple[float, float, float]:
    """Structures per second, p50 and p95, from each item's median time.

    The passes of a run see the same inputs in the same order, so item i
    is the same structure (or the same gap in the stream) in each; its
    median over the passes filters out the interference that hits single
    items on a shared machine.  Throughput is the item count over the
    summed medians.  Should the counts differ, all item times are pooled.
    """
    lists = [p["item_ms"] for p in passes]
    if len({len(v) for v in lists}) == 1:
        items = [statistics.median(v) for v in zip(*lists)]
    else:
        items = [t for v in lists for t in v]
    if len(items) < 2:  # nothing to rank: the gate reports why
        return 0.0, 0.0, 0.0
    rate = len(items) / (sum(items) / 1e3)
    q = statistics.quantiles(items, n=100, method="inclusive")
    return rate, q[49], q[94]


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> dict:
    """All passes of one run; returns the result object ``main`` prints."""
    began = time.perf_counter()
    if trace:
        passes = [_pass(workload, seed, size, False), _pass(workload, seed, size, True)]
        plain, traced = passes
        metrics = dict(traced["layers"])
        metrics["cli.jobs2.balance"] = _jobs2_balance(plain["row_ns"])
        plain_rate = plain["items"] / plain["raw_work_s"]
        traced_rate = traced["items"] / traced["raw_work_s"]
        metrics["trace.overhead_frac"] = plain_rate / traced_rate - 1
        units = declared_units("per_layer")
    else:
        passes = []
        while len(passes) < MIN_PASSES or sum(p["run_s"] for p in passes) < seconds:
            if passes and time.perf_counter() - began > LAUNCH_DEADLINE_S:
                break
            passes.append(_pass(workload, seed, size, False))
        rate, p50, p95 = _item_stats(passes)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "structures_per_s": rate,
            "item_ms.p50": p50,
            "item_ms.p95": p95,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        diff = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"measured metrics differ from BENCHMARK.json: {diff}")
    errors = [e for p in passes for e in p["errors"]]
    correct = all(p["error_count"] == 0 for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) if correct else attempted
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_passes": passes,
        "_errors": errors,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oseg", "__init__.py")):
        print(f"no program to measure: {SRC}/oseg is missing", file=sys.stderr)
        return 2
    env = _environment()
    compileall.compile_dir(SRC, quiet=2)  # later passes import cached bytecode
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = result.pop("_passes")
    errors = result.pop("_errors")

    os.makedirs(OUT_DIR, exist_ok=True)
    for p in passes:
        del p["item_ms"]
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, passes=passes)
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)}"
          f" items={sum(p['items'] for p in passes)} {json.dumps(env)}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for e in errors:
        print(f"GATE: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
