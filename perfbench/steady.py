"""Run workloads repeatedly and judge each metric's spread against its bound.

From the repository root::

    python3 perfbench/steady.py --workload analyze-cold --seeds 1-10

runs ``perfbench/run.py`` once per seed (one at a time, as BENCHMARK.json's
``command``) and prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance ÷
median) and the metric's bound from BENCHMARK.json.  A spread above a
third of the bound is flagged ``WIDE`` (``setup_s`` excepted: only its
median must repeat).  ``--trace 1`` does the same for the per-layer
metrics, which have no bound.  ``--record FILE`` also writes every run's
result and record line as JSON.  ``--pin`` adds each run's report digest
to ``perfbench/digests.json`` for seeds not pinned yet (run it only on a
commit whose reports are known to be right).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-5,9"`` -> ``[1, 2, 3, 4, 5, 9]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance ÷ median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(spec: dict, workload: str, seed: int, trace: int,
             seconds: float) -> tuple[dict, dict]:
    """One benchmark run; returns (result, record)."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name; repeat for several")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--record", type=Path, help="write all runs here as JSON")
    parser.add_argument("--pin", action="store_true",
                        help="pin the report digest of every seed not pinned yet")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    pins_path = ROOT / "perfbench" / "digests.json"
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list] = {}
    status = 0
    for workload in args.workload:
        results = []
        for seed in parse_seeds(args.seeds):
            result, record = run_once(spec, workload, seed, args.trace, seconds)
            results.append({"seed": seed, "result": result, "record": record})
            if args.pin and result["correct"]:
                pins.setdefault(workload, {}).setdefault(str(seed), record["digest"])
            failed = f"  FAILED {result['failed']}" if result["failed"] else ""
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
            ) + failed, flush=True)
            if not result["correct"]:
                status = 1
        runs[workload] = results
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':<36} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  WIDE" if share <= bound else "  OVER"
            print(f"  {name:<36} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{share:>8.2%} {bound if bound is not None else '-':>6}{flag}")
        print()
    if args.record:
        args.record.write_text(json.dumps(runs, indent=1))
    if args.pin:
        pins = {w: dict(sorted(p.items(), key=lambda kv: int(kv[0])))
                for w, p in sorted(pins.items())}
        pins_path.write_text(json.dumps(pins, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
