"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see BENCHMARK.json and README.md) in a child
process and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.

The launch is hermetic: the child gets the repository root on
PYTHONPATH (so Ray workers import the program whatever the caller's
cwd), its own scratch directory (inputs, outputs and the Ray session
directory) that is removed afterwards, and its own process session,
so that on the hard timeout every process of the run, Ray's included,
is killed and the run reports failure instead of hanging.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "entity_context_crawler_ray"
TIMEOUT_S = 165
# Ray puts Unix sockets 64 bytes deep under its temp directory
# (session_<time>_<pid>/sockets/plasma_store), and socket paths must
# stay within 107 bytes, which a deep checkout path can exceed
MAX_RAY_TMP_LEN = 43


def _group_alive(pgid: int) -> bool:
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                if os.getpgid(int(pid)) == pgid:
                    return True
            except ProcessLookupError:
                continue
    return False


def _kill_session(proc: subprocess.Popen, grace_s: float = 15.0) -> None:
    """SIGKILL every process of the run's session (its group leader is
    ``proc``), reap ``proc``, and wait until every other one is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + grace_s
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"error: {PACKAGE}/ not found beside {HERE}; nothing to benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_runs", str(os.getpid()))
    os.makedirs(scratch)
    ray_tmp = os.path.join(scratch, "ray")
    if len(ray_tmp) > MAX_RAY_TMP_LEN:
        ray_tmp = tempfile.mkdtemp(prefix="pb-ray-")
    result_path = os.path.join(scratch, "result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["RAY_TMPDIR"] = ray_tmp
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--ray-tmp", ray_tmp, "--out", result_path,
    ]
    proc = subprocess.Popen(
        cmd, cwd=scratch, env=env, stdout=sys.stderr, start_new_session=True
    )
    timed_out = False
    try:
        proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        _kill_session(proc)
        result = None
        if not timed_out and proc.returncode == 0 and os.path.isfile(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # another run's scratch is still there
            pass
    if result is None:
        why = f"timed out after {TIMEOUT_S}s" if timed_out else f"exited with {proc.returncode}"
        print(f"error: run {why}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
