"""Benchmark of the packed GENERIC path: serving, saturation, training.

Run from the repository root::

    python3 hdbench/run.py --workload serve-saturate --seed 1 --seconds 20 --trace 0

Workloads: ``serve-saturate``, ``serve-sharded`` and ``train`` (see
``hdbench/workloads.py``).  The program under test is
imported from ``src/`` next to this directory; without it the run exits
with a non-zero status and prints no result.

The measurement runs in a child process.  The command waits until that
child and every process it started (shard workers, multiprocessing's
resource tracker) have ended, kills what is left after a grace period
or when the run times out or is interrupted, and passes the child's
output on only when it exited cleanly.

Standard output ends with two JSON lines: a record (machine
fingerprint, request counts, shares of failed and shed answers, and
with ``--trace 1`` the per-span self times), then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_catalogue(key: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics.

    ``BENCHMARK.json`` at the repository root is the one list of metric
    names and units.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"hdbench: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hdbench: repro imported from {repro.__file__}, "
                         f"not from {src}")
    return repro


def fingerprint(seed: int) -> dict:
    import numpy as np
    from repro.core.ir import BACKENDS

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backends": BACKENDS.names(),
        "seed": seed,
    }


#: a run that has not ended by then is killed and prints no result
RUN_TIMEOUT_S = 170.0
#: how long processes a finished run leaves behind may take to exit
#: (multiprocessing's resource tracker leaves once its pipe closes)
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt every orphaned descendant, so that each one can be reaped."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list:
    """Pids of this process's live children."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_all(grace_s: float) -> None:
    """Wait for every descendant to end; kill those left after ``grace_s``.

    As a subreaper this process inherits the descendants of a child
    that has exited, so ``waitpid(-1)`` sees all of them.
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def supervise(argv: list) -> int:
    """Run the measurement in a child process and reap all it started.

    The child spawns shard processes and multiprocessing's resource
    tracker; this process waits until each of them has ended, on every
    path out: a normal exit, a failure, a timeout or a signal.  The
    child writes its output to a pipe that its own children do not
    inherit, so the pipe closes when the child exits; the output is
    passed on only when the child exited cleanly.
    """
    _become_subreaper()

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, interrupted)
    read_fd, write_fd = os.pipe()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv,
         "--result-fd", str(write_fd)],
        pass_fds=(write_fd,))
    os.close(write_fd)
    output: list = []
    reader = threading.Thread(
        target=lambda: output.append(os.fdopen(read_fd, "rb").read()),
        daemon=True)
    reader.start()
    code = 1
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
        reader.join()
    except subprocess.TimeoutExpired:
        print(f"hdbench: run exceeded {RUN_TIMEOUT_S:.0f} s", file=sys.stderr)
    finally:
        if child.poll() is None:
            child.kill()
        _reap_all(REAP_GRACE_S if child.returncode == 0 else 0.0)
    if code == 0:
        sys.stdout.buffer.write(output[0])
        sys.stdout.flush()
    return code if code >= 0 else 128 - code  # killed by signal -code


def result(outcome, trace: bool) -> dict:
    catalogue = load_catalogue("per_layer" if trace else "end_to_end")
    values = outcome.per_layer if trace else outcome.end_to_end
    if set(values) != set(catalogue):
        raise RuntimeError(
            f"measured metrics {sorted(values)} differ from BENCHMARK.json's "
            f"{sorted(catalogue)}")
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in catalogue.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hdbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result-fd", type=int, help=argparse.SUPPRESS)
    raw = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(raw)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.result_fd is None:
        return supervise(raw)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, trace)
    attempted = max(outcome.attempted, 1)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": trace,
        "machine": fingerprint(args.seed),
        "requests": outcome.counts,
        "failed_share": outcome.failed / attempted,
        "shed_share": outcome.counts.get("shed", 0) / attempted,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        **outcome.details,
    }
    with os.fdopen(args.result_fd, "w") as out:
        print(json.dumps({"record": record}), file=out)
        print(json.dumps(result(outcome, trace)), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
