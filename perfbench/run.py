"""Benchmark of coxlab, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify_all_D4 --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/selftest.py                # fast self-test of this harness

Workload names, metric names, units and the default run length come from
BENCHMARK.json; inputs and pinned outputs from workloads.py.  The set-up is
one closed-loop client, serial, as a desk tool is used.

Untraced (``--trace 0``): a few fresh ``coxlab classes --type G`` runs give
``setup_s``; then the workload repeats, each repetition a fresh interpreter
with cold per-matrix caches, until the next one would end after
``--seconds``.  Each repetition is timed from spawn to exit; peak RSS comes
from ``wait4`` and stdout is hashed as it streams.  The end-to-end metrics
are medians over repetitions.

Traced (``--trace 1``): one untraced repetition, one traced child that calls
coxlab's public functions in the order the CLI does and must reproduce the
CLI's bytes and the pinned counts, and (verify workloads) one cold child
for the inversion layer.  The per-layer metrics come from their spans.

Every child runs with only the checkout's ``src`` on PYTHONPATH, without
the caller's ``COXLAB_*`` and ``PYTHON*`` variables, and with its bytecode
cached under perfbench/out.  A repetition fails when it exits non-zero, its
stdout digest differs from the pin, or it times out; all elements it
attempted count as failed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table and the run conditions.  Exit code: 0 when every check
passed, 1 when a check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracing import summarize
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# A run must end within 180 s; children are killed once this is spent.
BUDGET_S = 165.0
SETUP_REPS = 9
TAIL_BYTES = 4096


class SetupError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def child_env() -> dict[str, str]:
    """The caller's environment without its COXLAB_* and PYTHON* settings.

    Only the checkout's src is importable, and bytecode is cached under
    perfbench/out, so neither a caller's settings (COXLAB_THREADS,
    PYTHONDONTWRITEBYTECODE, ...) nor a stale src/coxlab/__pycache__ can
    change what is measured.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("COXLAB_", "PYTHON")) or k == "PYTHONHOME"
    }
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


@dataclass
class ChildRun:
    returncode: int | None
    timed_out: bool
    wall_s: float
    first_byte_s: float
    peak_rss_mb: float
    stdout_bytes: int
    sha256: str
    tail: bytes
    stderr: bytes


def run_child(argv: list[str], timeout: float) -> ChildRun:
    """Run one child to completion, streaming its stdout through sha256."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    digest = hashlib.sha256()
    nbytes = 0
    first = None
    tail = b""
    err = b""
    timed_out = False
    deadline = t0 + timeout
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 20)
                    if not chunk:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        if first is None:
                            first = time.perf_counter() - t0
                        digest.update(chunk)
                        nbytes += len(chunk)
                        tail = (tail + chunk)[-TAIL_BYTES:]
                    else:
                        err = (err + chunk)[-TAIL_BYTES:]
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): leave no child running.
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildRun(
        returncode=None if timed_out else proc.returncode,
        timed_out=timed_out,
        wall_s=wall,
        first_byte_s=wall if first is None else first,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        stdout_bytes=nbytes,
        sha256=digest.hexdigest(),
        tail=tail,
        stderr=err,
    )


def workload_argv(wl: Workload) -> list[str]:
    if wl.kind == "enumerate":
        return child_argv("enumerate", wl)
    argv = [sys.executable, "-m", "coxlab", "verify", "--type", wl.group, "--all-elements"]
    if wl.max_length is not None:
        argv += ["--max-length", str(wl.max_length)]
    return argv


def child_argv(program: str, wl: Workload, spans: str | None = None) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "child.py"), program, "--group", wl.group]
    if wl.max_length is not None:
        argv += ["--max-length", str(wl.max_length)]
    if spans is not None:
        argv += ["--spans", spans]
    return argv


def classes_argv(wl: Workload) -> list[str]:
    return [sys.executable, "-m", "coxlab", "classes", "--type", wl.group]


def check(run: ChildRun, sha256: str | None, what: str, problems: list[str], verdict: bool = False) -> bool:
    """The correctness gate of one child run; reasons go to ``problems``."""
    if run.timed_out:
        problems.append(f"{what}: timed out after {run.wall_s:.1f} s")
    elif run.returncode != 0:
        stderr = run.stderr.decode(errors="replace").strip()[-300:]
        problems.append(f"{what}: exit code {run.returncode}: {stderr}")
    elif sha256 is not None and run.sha256 != sha256:
        problems.append(f"{what}: stdout sha256 {run.sha256[:12]} != pinned {sha256[:12]}")
    elif verdict and not run.tail.endswith(b'"verdict": "pass"\n}\n'):
        problems.append(f"{what}: verdict is not pass")
    else:
        return True
    return False


def probe_tree(timeout: float) -> str:
    """Import coxlab as the children will and return where it came from."""
    if not os.path.isfile(os.path.join(SRC, "coxlab", "__init__.py")):
        raise SetupError(f"no coxlab source tree under {SRC}")
    # Importing every module also fills the bytecode cache once, so no
    # timed repetition pays for compiling.
    code = "import coxlab, coxlab.cli; print(coxlab.__file__)"
    run = run_child([sys.executable, "-c", code], timeout)
    where = run.tail.decode(errors="replace").strip()
    if run.returncode != 0 or not where.startswith(os.path.join(SRC, "coxlab") + os.sep):
        raise SetupError(f"coxlab does not import from {SRC}: {where or run.stderr!r}")
    return where


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256() -> str:
    """Digest of the measured package source, for checkouts without .git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "coxlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def conditions(seed: int, coxlab_file: str) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "coxlab_file": coxlab_file,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; a failing or hanging child is a failed result."""
    deadline = time.perf_counter() + BUDGET_S

    def remaining() -> float:
        return max(0.001, deadline - time.perf_counter())

    coxlab_file = probe_tree(remaining())
    problems: list[str] = []
    measure = run_traced if trace else run_untraced
    metrics, attempted, failed, detail = measure(wl, seconds, remaining, problems)
    return {
        "workload": wl.name,
        "trace": trace,
        "conditions": conditions(seed, coxlab_file),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "detail": detail,
    }


def run_untraced(wl, seconds, remaining, problems):
    setup = []
    for i in range(SETUP_REPS):
        run = run_child(classes_argv(wl), remaining())
        check(run, wl.classes_sha256, f"setup {i + 1}", problems)
        setup.append(run)
    reps, passed = [], []
    t0 = time.perf_counter()
    while True:
        run = run_child(workload_argv(wl), remaining())
        reps.append(run)
        if check(run, wl.stdout_sha256, f"repetition {len(reps)}", problems, wl.kind == "verify"):
            passed.append(run)
        if run.timed_out or time.perf_counter() - t0 + run.wall_s > seconds:
            break
    timed = passed or reps
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in timed),
        "elements_per_s": statistics.median(wl.elements / r.wall_s for r in timed),
        "first_byte_s": statistics.median(r.first_byte_s for r in timed),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
        "stdout_mb": statistics.median(r.stdout_bytes / 1e6 for r in timed),
        "setup_s": statistics.median(r.wall_s for r in setup),
    }
    detail = {"repetitions": [run_summary(r) for r in reps], "setup": [run_summary(r) for r in setup]}
    failed = wl.elements * (len(reps) - len(passed))
    return metrics, wl.elements * len(reps), failed, detail


def load_trace(path: str, what: str, problems: list[str]) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not doc["coxlab_file"].startswith(os.path.join(SRC, "coxlab") + os.sep):
        problems.append(f"{what}: coxlab imported from {doc['coxlab_file']}")
    return summarize(doc)


def run_traced(wl, seconds, remaining, problems):
    os.makedirs(OUT, exist_ok=True)
    verdict = wl.kind == "verify"
    runs, passed = {}, {}
    runs["untraced"] = run_child(workload_argv(wl), remaining())
    passed["untraced"] = check(runs["untraced"], wl.stdout_sha256, "untraced", problems, verdict)
    spans = os.path.join(OUT, f"spans-{wl.name}.json")
    runs["traced"] = run_child(child_argv(wl.kind, wl, spans), remaining())
    passed["traced"] = check(runs["traced"], wl.stdout_sha256, "traced", problems, verdict)
    if runs["traced"].sha256 != runs["untraced"].sha256:
        problems.append("traced: rebuilt bytes differ from the CLI's")
    layer = load_trace(spans, "traced", problems) if passed["traced"] else {}
    if wl.kind == "verify":
        spans = os.path.join(OUT, f"spans-{wl.name}-inversions.json")
        runs["inversions"] = run_child(child_argv("inversions", wl, spans), remaining())
        passed["inversions"] = check(runs["inversions"], None, "inversions", problems)
        if passed["inversions"]:
            found = load_trace(spans, "inversions", problems)
            layer.update((k, v) for k, v in found.items() if k.startswith("inversions."))
    for key, want in wl.counts.items():
        if layer.get(key) != want:
            problems.append(f"traced count {key} is {layer.get(key)}, pinned {want}")
    layer["trace.wall_s"] = runs["traced"].wall_s
    layer["trace.overhead_s"] = runs["traced"].wall_s - runs["untraced"].wall_s
    detail = {"runs": {k: run_summary(r) for k, r in runs.items()}, "layers": layer}
    failed = wl.elements * sum(1 for ok in passed.values() if not ok)
    return layer, wl.elements * len(runs), failed, detail


def run_summary(run: ChildRun) -> dict:
    return {
        "wall_s": run.wall_s,
        "first_byte_s": run.first_byte_s,
        "peak_rss_mb": run.peak_rss_mb,
        "stdout_bytes": run.stdout_bytes,
        "sha256": run.sha256,
        "returncode": run.returncode,
        "timed_out": run.timed_out,
    }


def report(result: dict, spec_metrics: list[dict]) -> dict:
    """Print one run as a table and return its metrics as the contract names them."""
    name = result["workload"]
    print(f"# {name} trace={int(result['trace'])} conditions {json.dumps(result['conditions'])}")
    metrics = {}
    for m in spec_metrics:
        # A layer the workload never runs (serialize on enumerate_A5) reads 0.
        value = result["metrics"].get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{name:<16} {m['name']:<36} {value:>18.6f} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{name:<16} {'failed_frac':<36} {frac:>18.6f} ({result['failed']}/{result['attempted']} elements)")
    for problem in result["problems"]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{name}-trace{int(result['trace'])}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            raise SetupError(f"workloads without a definition: {unknown}")
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", required=True, choices=names + ["all"])
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        chosen = names if args.workload == "all" else [args.workload]
        modes = (False, True) if args.workload == "all" else (bool(args.trace),)
        results = [
            run_workload(WORKLOADS[n], args.seed, args.seconds, trace) for n in chosen for trace in modes
        ]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for result in results:
        metrics = report(result, spec["per_layer" if result["trace"] else "end_to_end"])
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        summary["metrics"].update((prefix + k, v) for k, v in metrics.items())
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
