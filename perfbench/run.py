"""Benchmark harness for the `seifertsum` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from `src/` next to this directory; nothing is
installed. Every call is a fresh `python -m seifertsum.cli ...` process,
one at a time: a closed loop with one client. With --trace 0 the harness
times the workload's calls, cycling through them for about S seconds,
runs the frontier calls once, checks every report in a separate process
and prints the end-to-end metrics. With --trace 1 it runs each call
untraced and then traced (perfbench/tracer.py) for about S seconds and
prints the per-layer metrics. The last line of stdout is the result
JSON; the lines before it record provenance and per-call figures.

The harness itself stays at the interpreter's memory floor: reports are
streamed to files and parsed only by the checker process, because a
child's peak resident set starts from the parent's at exec.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALL_TIMEOUT = 150.0
FRONTIER_TIMEOUT = 30.0
# One thread per child: on a shared 2-core machine two BLAS threads made
# the wall and CPU spread of lattice-heavy several times wider.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("SEIFERTSUM_THREADS", None)
    # use bytecode caches under src/ as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], out_path: Path | None, err_path: Path | None,
              timeout: float, env: dict) -> dict:
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    out = open(out_path, "wb") if out_path else subprocess.DEVNULL
    err = open(err_path, "wb") if err_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SIGTERM to the harness: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode}


def cli_args(call: dict) -> list[str]:
    return [sys.executable, "-m", "seifertsum.cli"] + workloads.argv(call)


def traced_args(call: dict, trace_path: Path, call_id: str) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(trace_path), call_id] \
        + workloads.argv(call)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class Recorder:
    """Samples and distinct reports per call, kept small: a report whose
    bytes repeat an earlier one of the same call is deleted unread."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.samples: dict[int, list[dict]] = {}
        self.reports: dict[int, dict[str, Path]] = {}
        self.errors: dict[int, Path] = {}
        self.runs = 0

    def run(self, index: int, args: list[str], timeout: float) -> dict:
        self.runs += 1
        out = self.workdir / ("%d-%d.out" % (index, self.runs))
        err = out.with_suffix(".err")
        sample = run_child(args, out, err, timeout, self.env)
        sample["bytes"] = out.stat().st_size
        self.samples.setdefault(index, []).append(sample)
        if sample["rc"] != 0:
            self.errors.setdefault(index, err)
            out.unlink()
            return sample
        err.unlink()
        digest = file_digest(out)
        seen = self.reports.setdefault(index, {})
        if digest in seen:
            out.unlink()
        else:
            seen[digest] = out
        return sample

    def check(self, calls: list[dict]) -> dict[int, str]:
        """Failure reason per call index that failed (exit code or report)."""
        failures = {}
        for index, samples in self.samples.items():
            bad = [s["rc"] for s in samples if s["rc"] != 0]
            if bad:
                tail = self.errors[index].read_text(errors="replace").strip().splitlines()
                failures[index] = "exit %d: %s" % (bad[0], tail[-1] if tail else "")
        manifest = [{"index": i, "call": calls[i], "path": str(p)}
                    for i, seen in self.reports.items() for p in seen.values()]
        if not manifest:
            return failures
        manifest_path = self.workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        proc = subprocess.run([sys.executable, str(HERE / "check.py"), str(manifest_path)],
                              capture_output=True, text=True, cwd=ROOT, timeout=CALL_TIMEOUT)
        try:
            verdicts = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            reason = "checker failed: %s" % (proc.stderr.strip().splitlines() or [""])[-1]
            verdicts = [{"ok": False, "reason": reason}] * len(manifest)
        for entry, verdict in zip(manifest, verdicts):
            if not verdict["ok"]:
                failures.setdefault(entry["index"], "wrong report: " + verdict["reason"])
        return failures


def cycle_calls(seconds: float, count: int, run_call) -> int:
    """Call run_call(0..count-1) once, then keep cycling through the
    calls while the next one, at its last duration, would end within
    `seconds`. Returns the number of calls made.

    Stopping at call granularity keeps every run close to `seconds`
    whatever a pass costs; early calls may get one sample more."""
    start = time.perf_counter()
    last = [0.0] * count
    made = 0
    while made < count or time.perf_counter() - start + last[made % count] <= seconds:
        began = time.perf_counter()
        run_call(made % count)
        last[made % count] = time.perf_counter() - began
        made += 1
    return made


def median_totals(samples: list[dict]) -> dict:
    """Per-key median over several per-call totals."""
    keys = set().union(*samples)
    return {key: median([s.get(key, 0) for s in samples]) for key in keys}


def provenance(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "mpmath": version("mpmath"), "cpu_model": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "child_thread_env": THREAD_ENV,
        "inherited_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_at_start": list(os.getloadavg()),
    }


def import_only(env: dict) -> dict:
    return run_child([sys.executable, "-c", "import seifertsum.cli"], None, None,
                     CALL_TIMEOUT, env)


def run_untraced(args, timed, frontier, rec: Recorder, env: dict):
    setup = []

    def run_call(i):
        # set-up samples spread over the run: machine speed drifts over seconds
        setup.append(import_only(env)["wall"])
        rec.run(i, cli_args(timed[i]), CALL_TIMEOUT)

    made = cycle_calls(args.seconds, len(timed), run_call)
    base = len(timed)
    for j, call in enumerate(frontier):
        rec.run(base + j, cli_args(call), FRONTIER_TIMEOUT)
    failures = rec.check(timed + frontier)
    per_call = [{key: median([s[key] for s in rec.samples[i]])
                 for key in ("wall", "cpu", "rss_mb")} for i in range(base)]
    metrics = {
        "wall_s": (sum(c["wall"] for c in per_call), "s"),
        "cpu_s": (sum(c["cpu"] for c in per_call), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for c in per_call), "MB"),
        "error_rate": (len(failures) / (len(timed) + len(frontier)), "ratio"),
    }
    notes = {"timed_calls": made, "setup_samples": [round(v, 4) for v in setup]}
    return metrics, failures, notes


def run_traced(args, timed, rec: Recorder):
    """Each call runs untraced, then traced; per-layer totals and the
    overhead use each call's medians, like the end-to-end metrics."""
    plain = [[] for _ in timed]
    traced = [[] for _ in timed]
    totals = [[] for _ in timed]

    def run_call(i):
        plain[i].append(rec.run(i, cli_args(timed[i]), CALL_TIMEOUT))
        path = rec.workdir / ("%d.trace.json" % i)
        traced[i].append(rec.run(i, traced_args(timed[i], path, "%s/%d" % (args.workload, i)),
                                 CALL_TIMEOUT))
        if path.exists():
            totals[i].append(tracer.summarize(json.loads(path.read_text())))
            path.unlink()

    made = cycle_calls(args.seconds, len(timed), run_call)
    failures = rec.check(timed)
    values = tracer.per_layer(tracer.combine(
        [median_totals(t) for t in totals if t]))
    values["cli.report_mb"] = sum(median([s["bytes"] for s in t]) for t in traced) / 1e6
    values["trace.overhead_s"] = sum(median([s["wall"] for s in t]) for t in traced) \
        - sum(median([s["wall"] for s in p]) for p in plain)
    metrics = {name: (values[name], unit) for name, unit, _ in tracer.PER_LAYER}
    return metrics, failures, {"traced_calls": made}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "seifertsum" / "cli.py").is_file():
        sys.stderr.write("run.py: no src/seifertsum/cli.py under %s; the benchmark "
                         "must sit in a seifertsum checkout\n" % ROOT)
        return 2

    info = provenance(args)
    env = child_env()
    timed, frontier = workloads.calls(args.workload, args.seed)
    # compiles the bytecode caches and warms the page cache, untimed
    if import_only(env)["rc"] != 0:
        sys.stderr.write("run.py: import seifertsum.cli failed\n")
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        rec = Recorder(workdir, env)
        if args.trace:
            metrics, failures, notes = run_traced(args, timed, rec)
        else:
            metrics, failures, notes = run_untraced(args, timed, frontier, rec, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("provenance " + json.dumps(info, sort_keys=True))
    print("run " + json.dumps(dict(notes, executions=rec.runs)))
    for i, call in enumerate(timed + (frontier if not args.trace else [])):
        samples = rec.samples.get(i, [])
        kind = "timed" if i < len(timed) else "frontier"
        print("%-8s wall %7.3f s  cpu %7.3f s  rss %6.1f MB  exit %s  %s  %s  walls %s" % (
            kind, median([s["wall"] for s in samples]), median([s["cpu"] for s in samples]),
            median([s["rss_mb"] for s in samples]), sorted({s["rc"] for s in samples}),
            "FAIL " + failures[i] if i in failures else "ok", workloads.label(call),
            [round(s["wall"], 3) for s in samples]))
    for name, (value, unit) in metrics.items():
        print("metric %-30s %14.6f %s" % (name, value, unit))
    # a frontier call may fail to run, but a report it does print must be right
    correct = not any(i < len(timed) or reason.startswith("wrong report")
                      for i, reason in failures.items())
    # attempted and failed count distinct calls, as error_rate does, so
    # they do not depend on how many repeats fit into the run
    print(json.dumps({
        "correct": correct,
        "attempted": len(rec.samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
