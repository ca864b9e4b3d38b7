"""End-to-end benchmark of the ``repro`` analysis paths, traced per layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 20 --trace 0

The driver generates the workload's database from ``--seed`` with the
same simulator call ``repro simulate`` makes (cached under
``.perfbench_cache/``), measures for ``--seconds`` seconds and checks every
report's bytes.  It prints one line per metric, then a ``record`` JSON
line (machine, versions, seed, generator time, samples) and, last, the
result JSON.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
adds one traced replay and reports the per-layer metrics instead.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
WORK = CACHE / "work"
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"

#: Every child gets this long before it is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Set-up samples per run (the reported ``setup_s`` is their median).
SETUP_SAMPLES = 3
#: Cached generated inputs kept per workload; older ones are evicted.
CACHE_KEEP = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the path that processes it.

    ``pumps`` and ``interval`` (report interval in days) are passed to
    ``repro simulate``; the fleet is otherwise its default (90 days,
    labels 60/60/40).  A ``refresh`` workload starts from the first
    ``t0`` days and ingests ``refreshes`` steps of ``delta`` days each
    per pass.
    """

    kind: str
    pumps: int
    interval: float
    t0: float = 0.0
    delta: float = 0.0
    refreshes: int = 0


#: Why each exists: BENCHMARK.json and README.md.  ``analyze-dense`` is
#: run by hand only (see README.md).
WORKLOADS = {
    "analyze-cold": Workload("cli", 12, 0.125),
    "analyze-dense": Workload("cli", 8, 0.03125),
    "refresh-rolling": Workload("refresh", 12, 0.125, t0=60.0, delta=1.0, refreshes=3),
}

#: End-to-end metric name -> unit (BENCHMARK.json holds their bounds).
END_TO_END = {
    "op_p50_s": "s",
    "measurements_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric name -> unit.
PER_LAYER = {
    **{name: "s" for name in tracing.LAYER_METRICS.values()},
    "storage.retrieve_rows_per_s": "1/s",
    "storage.rows_retrieved": "count",
    "storage.blob_mb": "MB",
    "storage.matrix_mb": "MB",
    "storage.rows_written": "count",
    "runtime.transform_rows": "count",
    "runtime.transform_cache_hit_ratio": "ratio",
    "runtime.peak_cache_hit_ratio": "ratio",
    "runtime.fleet_workers": "count",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


# ----------------------------------------------------------------------
# Children: one at a time, timed from spawn to exit.
# ----------------------------------------------------------------------
@dataclass
class Child:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], tag: str) -> Child:
    """Run ``argv`` with the checkout's ``src`` first on the path.

    Output goes to files (no pipe can fill up); the child is reaped with
    ``wait4`` so its own peak RSS is read, not the maximum over every
    child this driver ever waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: leave no child behind
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def worker(*args: str) -> list[str]:
    return [sys.executable, str(WORKER), *args]


# ----------------------------------------------------------------------
# Seeded inputs, cached by workload, seed and generator source.
# ----------------------------------------------------------------------
def generator_digest() -> str:
    """Digest of the code that writes the databases (simulator, storage, CLI)."""
    h = hashlib.sha256()
    repro = SRC / "repro"
    for path in sorted([*repro.glob("simulation/*.py"), *repro.glob("storage/*.py"),
                        repro / "cli.py"]):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _evict(prefix: str, keep: Path) -> None:
    entries = sorted(
        (p for p in CACHE.glob(prefix + "*") if p.is_dir() and p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[: max(0, len(entries) - (CACHE_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


#: ``repro simulate``'s default 60/60/40 label mix is infeasible for some
#: fleets (seed 17 has no zone-D measurement at all), and a refresh needs
#: valid labels of every zone before ``t0``.  Such a seed moves on along a
#: fixed sequence of simulator seeds, so a benchmark seed always maps to
#: the same input.
SIM_ATTEMPTS = 8
SIM_SEED_STRIDE = 100_000
ZONES = {"A", "BC", "D"}


def labelled_zones(db: Path, before_day: float) -> set[str]:
    """Zones of the valid labels on measurements stamped before ``before_day``."""
    conn = sqlite3.connect(db)
    try:
        rows = conn.execute(
            "SELECT DISTINCT l.zone FROM labels l JOIN measurements m"
            " ON l.pump_id = m.pump_id AND l.measurement_id = m.measurement_id"
            " WHERE l.valid = 1 AND m.timestamp_day < ?",
            (before_day,),
        ).fetchall()
    finally:
        conn.close()
    return {zone for (zone,) in rows}


def inputs(name: str, wl: Workload, seed: int) -> tuple[Path, int, float]:
    """Workload ``name``'s database for ``seed``: (path, simulator seed, gen_s).

    ``gen_s`` is 0.0 on a cache hit.  A miss runs ``repro simulate`` in a
    child (a refresh workload also gets ``initial.db``, the fleet cut at
    ``t0``) and publishes the cache entry with one rename.
    """
    prefix = f"{name}-"
    entry = CACHE / f"{prefix}s{seed}-{generator_digest()}"
    if entry.is_dir():
        os.utime(entry)
        fleet = next(entry.glob("fleet-*.db"))
        return fleet, int(fleet.stem.removeprefix("fleet-")), 0.0
    start = time.perf_counter()
    staging = entry.with_name(entry.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    for attempt in range(SIM_ATTEMPTS):
        staging.mkdir(parents=True)
        sim_seed = seed + SIM_SEED_STRIDE * attempt
        fleet = staging / f"fleet-{sim_seed}.db"
        child = run_child(
            [sys.executable, "-m", "repro", "simulate", "--db", str(fleet),
             "--pumps", str(wl.pumps), "--interval", f"{wl.interval:g}",
             "--seed", str(sim_seed)],
            "simulate",
        )
        if child.returncode == 0 and (
            wl.kind != "refresh" or labelled_zones(fleet, wl.t0) >= ZONES
        ):
            break
        shutil.rmtree(staging)
    else:
        raise RuntimeError(f"no usable fleet in {SIM_ATTEMPTS} simulator seeds: "
                           f"{(child.stdout + child.stderr).decode()[-2000:]}")
    flush(fleet)
    if wl.kind == "refresh":
        cut(fleet, staging / "initial.db", wl.t0)
    staging.rename(entry)
    _evict(prefix, entry)
    return entry / fleet.name, sim_seed, time.perf_counter() - start


def cut(fleet: Path, target: Path, t0: float) -> None:
    """Copy ``fleet`` to ``target`` without measurements from day ``t0`` on."""
    shutil.copyfile(fleet, target)
    conn = sqlite3.connect(target)
    try:
        with conn:
            conn.execute("DELETE FROM measurements WHERE timestamp_day >= ?", (t0,))
        conn.execute("VACUUM")
    finally:
        conn.close()
    flush(target)


def flush(path: Path) -> None:
    """Write ``path``'s dirty pages back now, not during a timed operation."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def restore(pristine: Path, name: str) -> Path:
    """A fresh, flushed copy of ``pristine`` in the work directory (untimed)."""
    dst = WORK / name
    for stale in (dst, Path(f"{dst}-wal"), Path(f"{dst}-shm")):
        stale.unlink(missing_ok=True)
    shutil.copyfile(pristine, dst)
    flush(dst)
    return dst


# ----------------------------------------------------------------------
# Correctness: report digests pinned per workload and seed.
# ----------------------------------------------------------------------
def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class Checker:
    """Counts operations and decides whether each one's output is correct.

    A pinned seed must reproduce its pinned sha256.  An unpinned seed
    must reproduce the first digest this run saw (every operation of a
    run processes identical input).  ``failed_frac`` is failed ÷
    attempted.
    """

    def __init__(self, pin: str | None):
        self.pin = pin
        self.expected = pin
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, digest: str | None, ops: int = 1) -> bool:
        self.attempted += ops
        if ok and digest is not None and self.expected is None:
            self.expected = digest
        good = ok and digest is not None and digest == self.expected
        if not good:
            self.failed += ops
        return good

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def report_ok(report: bytes, measurements: int) -> bool:
    """Structural sanity of a CLI report: header and analysed count."""
    return (
        b"VIBRATION ANALYTICS" in report
        and f"Measurements analyzed: {measurements} (".encode() in report
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    percentile = 100 * (n - 10) // n
    ordered = sorted(samples)
    return {
        "percentile": percentile,
        "samples": n,
        "value": ordered[max(0, -(-percentile * n // 100) - 1)],
    }


def layer_metrics(spans: list[dict], counters: dict, overhead_s: float) -> dict:
    """Per-layer metric values from one traced replay."""
    out = tracing.layer_seconds(spans)
    rows = counters["rows_retrieved"]
    bytes_per_row = counters["samples_per_row"] * 3
    hits = counters.get("transform_cache_hits", 0)
    misses = counters.get("transform_cache_misses", 0)
    peak_hits = counters.get("peak_cache_hits", 0)
    peak_misses = counters.get("peak_cache_misses", 0)
    out.update({
        "storage.retrieve_rows_per_s": (
            rows / out["storage.retrieve_s"] if out["storage.retrieve_s"] else 0.0
        ),
        "storage.rows_retrieved": rows,
        "storage.blob_mb": rows * bytes_per_row * 4 / 1e6,
        "storage.matrix_mb": rows * bytes_per_row * 8 / 1e6,
        "storage.rows_written": counters["rows_written"],
        "runtime.transform_rows": counters["transform_rows"],
        "runtime.transform_cache_hit_ratio": hits / max(1, hits + misses),
        "runtime.peak_cache_hit_ratio": peak_hits / max(1, peak_hits + peak_misses),
        "runtime.fleet_workers": counters["fleet_workers"],
        "trace.overhead_s": overhead_s,
    })
    return out


# ----------------------------------------------------------------------
# Workload runners.
# ----------------------------------------------------------------------
@dataclass
class Samples:
    op_s: list[float]
    setup_s: list[float]
    rss_mb: list[float]
    measurements: int
    per_layer: dict | None = None


def run_cli(db: Path, seconds: float, trace: bool, checker: Checker) -> Samples:
    copy = restore(db, "op.db")
    setups = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(worker("setup", str(copy)), "setup")
        if child.returncode != 0:
            raise RuntimeError(f"setup failed: {child.stderr.decode()[-2000:]}")
        setups.append(child.wall_s)
    measurements = sqlite_count(copy)

    def analyze() -> Child:
        child = run_child(
            [sys.executable, "-m", "repro", "analyze", "--db", str(restore(db, "op.db"))],
            "analyze",
        )
        ok = child.returncode == 0 and report_ok(child.stdout, measurements)
        checker.check(ok, sha256(child.stdout) if ok else None)
        return child

    ops: list[float] = []
    rss: list[float] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        child = analyze()
        ops.append(child.wall_s)
        rss.append(child.rss_mb)
    samples = Samples(ops, setups, rss, measurements)
    if trace:
        copy = restore(db, "op.db")
        report, spans = WORK / "trace.report", WORK / "trace.json"
        child = run_child(worker("analyze-trace", str(copy), str(report), str(spans)),
                          "trace")
        ok = child.returncode == 0 and report_ok(report.read_bytes(), measurements)
        checker.check(ok, sha256(report.read_bytes()) if ok else None)
        if child.returncode != 0:
            raise RuntimeError(f"traced replay failed: {child.stderr.decode()[-2000:]}")
        traced = json.loads(spans.read_text())
        samples.per_layer = layer_metrics(
            traced["spans"], traced["counters"], child.wall_s - statistics.median(ops)
        )
    return samples


def run_refresh(wl: Workload, fleet: Path, initial: Path, seconds: float,
                trace: bool, checker: Checker) -> Samples:
    def one_pass(traced: bool) -> tuple[Child, dict | None]:
        copy = restore(initial, "refresh.db")
        out_dir = WORK / "dashboards"
        out_dir.mkdir(exist_ok=True)
        result_path = WORK / "refresh.json"
        result_path.unlink(missing_ok=True)
        child = run_child(
            worker("refresh", str(copy), str(fleet), str(out_dir), str(result_path),
                   "--t0", f"{wl.t0:g}", "--delta", f"{wl.delta:g}",
                   "--refreshes", str(wl.refreshes), "--trace", str(int(traced))),
            "refresh",
        )
        result = json.loads(result_path.read_text()) if child.returncode == 0 else None
        ok = result is not None and len(result["refresh_s"]) == wl.refreshes
        checker.check(ok, result["digest"] if ok else None, ops=wl.refreshes)
        return child, result

    refresh: list[float] = []
    setups: list[float] = []
    rss: list[float] = []
    walls: list[float] = []
    rows = 0
    passes = 0
    start = time.perf_counter()
    while passes < SETUP_SAMPLES or time.perf_counter() - start < seconds:
        passes += 1
        child, result = one_pass(False)
        if result is None:
            continue  # counted as failed; a pass that crashed has no latencies
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        setups.append(result["setup_s"])
        refresh.extend(result["refresh_s"])
        rows += sum(result["window_rows"])
    if not walls:
        raise RuntimeError(f"every refresh pass failed: {child.stderr.decode()[-2000:]}")
    samples = Samples(refresh, setups, rss, rows)
    if trace:
        child, result = one_pass(True)
        if result is None:
            raise RuntimeError(f"traced pass failed: {child.stderr.decode()[-2000:]}")
        samples.per_layer = layer_metrics(
            result["spans"], result["counters"], child.wall_s - statistics.median(walls)
        )
    return samples


def sqlite_count(db: Path) -> int:
    conn = sqlite3.connect(db)
    try:
        return int(conn.execute("SELECT COUNT(*) FROM measurements").fetchone()[0])
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def end_to_end(wl: Workload, samples: Samples) -> dict[str, float]:
    op = statistics.median(samples.op_s)
    if wl.kind == "cli":
        throughput = samples.measurements / op
    else:
        throughput = samples.measurements / sum(samples.op_s)
    return {
        "op_p50_s": op,
        "measurements_per_s": throughput,
        "setup_s": statistics.median(samples.setup_s),
        "peak_rss_mb": max(samples.rss_mb),
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        fleet, sim_seed, gen_s = inputs(args.workload, wl, args.seed)
        pin = load_pins().get(args.workload, {}).get(str(args.seed))
        checker = Checker(pin)
        if wl.kind == "cli":
            samples = run_cli(fleet, args.seconds, bool(args.trace), checker)
        else:
            samples = run_refresh(wl, fleet, fleet.with_name("initial.db"),
                                  args.seconds, bool(args.trace), checker)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    e2e = end_to_end(wl, samples)
    units = dict(END_TO_END)
    for metric, value in e2e.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    metrics = e2e
    if args.trace:
        units = PER_LAYER
        metrics = samples.per_layer
        for metric in PER_LAYER:
            print(f"{metric} = {metrics[metric]:.6g} {units[metric]}")
    print(f"failed_frac = {checker.failed_frac:.6g} ({checker.failed} of "
          f"{checker.attempted} operations)")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "generator": generator_digest(),
        "generator_s": gen_s,
        "simulator_seed": sim_seed,
        "pinned": checker.pin is not None,
        "digest": checker.expected,
        "failed_frac": checker.failed_frac,
        "end_to_end": e2e,
        "op_s": samples.op_s,
        "setup_s": samples.setup_s,
        "refresh_tail_s": tail(samples.op_s) if wl.kind == "refresh" else None,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
