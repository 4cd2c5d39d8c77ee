"""One benchmark run inside its own process session (started by run.py).

Sequence: start Ray with a pinned CPU count, prepare the inputs
SETUP_REPEATS times, run one untimed warm-up pass, then repeat the
workload until ``--seconds`` have passed and at least the workload's
``min_passes`` are done, checking every pass.  With
``--trace 1`` passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones.  The result JSON is
written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import threading
import time
import traceback
from typing import Dict, List

import numpy as np

# Logical CPUs given to Ray on every commit and box.  build_matches'
# 2-actor pool deadlocks below 3 logical CPUs (see README.md), so this
# is not taken from the machine.
CPUS = 4
OBJECT_STORE_BYTES = 768 << 20
SETUP_REPEATS = 3
IDLE_WORKER_KEEP_MS = 600_000

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _median(vals: List[float]) -> float:
    return float(statistics.median(vals)) if vals else 0.0


def calibrate() -> float:
    """Fixed pure numpy + regex leg, no Ray: box drift shows here."""
    rng = np.random.default_rng(0)
    text = " ".join(np.asarray(["alpha", "beta", "gamma", "delta_1", "x9"])[rng.integers(0, 5, 200_000)])
    nums = rng.random(1_000_000)
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        toks = re.findall(r"[a-z0-9_]+", text)
        np.unique(np.asarray(toks), return_counts=True)
        np.sort(nums)
        walls.append(time.perf_counter() - t0)
    return _median(walls)


class RssSampler(threading.Thread):
    """Peak of the summed RSS of this process and all its descendants
    (the Ray session's GCS, raylet and workers)."""

    def __init__(self, period: float = 0.5) -> None:
        super().__init__(daemon=True)
        self.period = period
        self.peak_bytes = 0
        self._halt = threading.Event()

    @staticmethod
    def _tree_rss() -> int:
        children: Dict[int, List[int]] = {}
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(pid))
        total, todo = 0, [os.getpid()]
        page = os.sysconf("SC_PAGE_SIZE")
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/statm") as fh:
                    total += int(fh.read().split()[1]) * page
            except (OSError, IndexError, ValueError):
                pass
        return total

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak_bytes = max(self.peak_bytes, self._tree_rss())
            self._halt.wait(self.period)

    def stop(self) -> float:
        self._halt.set()
        self.join()
        return self.peak_bytes / 2**20


def start_ray(temp_dir: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
        # Ray kills a task worker process idle for 1 s by default.  The
        # untimed checks between passes take longer than that, so the
        # next pass would start fresh worker processes, more or fewer
        # depending on how long the checks took.  Keeping them keeps
        # that start-up in the warm-up pass.
        _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS},
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def run(args) -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    start_ray(args.ray_tmp)
    ray_start_s = time.perf_counter() - t0

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](os.getcwd(), args.seed)
    prepares = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        layers = wl.prepare()
        prepares.append((time.perf_counter() - t0, layers))
    prepare_s = _median([p for p, _ in prepares])

    t0 = time.perf_counter()
    warm = wl.iterate()
    warmup_s = time.perf_counter() - t0
    warm_errs = [e for errs in wl.check(warm).values() for e in errs]
    reference_digest = wl.digest(warm)
    setup_s = ray_start_s + prepare_s + warmup_s

    calib_s = calibrate()
    sampler = RssSampler()
    sampler.start()
    attempted = failed = 0
    totals: Dict[bool, List[float]] = {False: [], True: []}
    rates: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    t_start = time.perf_counter()
    n = 0
    min_passes = max(wl.min_passes, 2 if args.trace else 1)
    while n < min_passes or time.perf_counter() - t_start < args.seconds:
        traced = bool(args.trace) and n % 2 == 1
        n += 1
        tr = tracing.Tracer()
        attempted += len(wl.ops)
        try:
            if traced:
                with tr.patched():
                    it = wl.iterate()
            else:
                it = wl.iterate()
            errs = wl.check(it)
            if wl.digest(it) != reference_digest:
                errs[wl.ops[-1]].append("output digest differs from the warm-up pass")
        except Exception:  # noqa: BLE001 — a failed pass is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += len(wl.ops)
            continue
        for op, e in errs.items():
            if e:
                failed += 1
                print(f"check failed [{op}]: {e}", file=sys.stderr)
        total = sum(it.times[op] for op in wl.ops) + it.times["wait.idle"]
        print(json.dumps({"pass": n, "traced": traced, "times": it.times}), file=sys.stderr)
        totals[traced].append(total)
        rates.append(it.items / total)
        if traced:
            layers = wl.layers(it, tr)
            layers["wait.idle_s"] = it.times["wait.idle"]
            layer_runs.append(layers)
            print(json.dumps({"spans": tr.spans}), file=sys.stderr)
    peak_rss_mb = sampler.stop()

    if args.trace:
        keys = {k for run in layer_runs for k in run}
        values = {k: _median([run[k] for run in layer_runs if k in run]) for k in keys}
        values.update(
            {
                "sources.derive_s": _median([p["sources.derive_s"] for _, p in prepares]),
                "sources.preload_s": _median([p["sources.preload_s"] for _, p in prepares]),
                "setup.ray_start_s": ray_start_s,
                "setup.prepare_s": prepare_s,
                "setup.warmup_s": warmup_s,
                "control.calib_s": calib_s,
                "trace.total_s": _median(totals[True]),
                "trace.overhead_s": _median(totals[True]) - _median(totals[False]),
                "env.logical_cpus": CPUS,
                "env.nproc": len(os.sched_getaffinity(0)),
                "iterations": n,
            }
        )
        metric_specs = spec["per_layer"]
    else:
        values = {
            "total_s": _median(totals[False]),
            "items_per_s": _median(rates),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        print(
            json.dumps({"control.calib_s": calib_s, "iterations": n, "totals": totals[False]}),
            file=sys.stderr,
        )
        metric_specs = spec["end_to_end"]
    if warm_errs:
        print(f"warm-up pass failed its checks: {warm_errs}", file=sys.stderr)
    return {
        "correct": failed == 0 and not warm_errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in metric_specs
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    result = run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    # run.py kills and reaps this whole process session (Ray's processes
    # included) right after; a graceful ray.shutdown() first only adds
    # seconds to every run
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
