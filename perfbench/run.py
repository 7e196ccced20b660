"""darwinlab benchmark: closed-loop `dpl` workloads, timed from outside.

    python3 perfbench/run.py --workload check-n64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `dpl` runs from ``src/`` of that
checkout, one child process at a time.  With ``--trace 0`` every command is
a plain `dpl` process and the end-to-end metrics are reported.  With
``--trace 1`` each iteration runs once plain and once under
``layertrace.py`` and the per-layer metrics are reported.  The last line of
standard output is one JSON object; the lines before it are a readable
summary, and the full record (environment, configs, every sample) is written
to ``.perfbench/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import layertrace
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PASSES = 5
STARTUP_SAMPLES = 5
OP_TIMEOUT_S = 120.0

DPL = "import sys; from darwinlab.cli import main; sys.exit(main())"
PROBE = ("import json, darwinlab, numpy; from darwinlab import suites; "
         "print(json.dumps({'file': darwinlab.__file__, 'numpy': numpy.__version__, "
         "'tolerances': suites.DEFAULT_TOLERANCES, 'suites': list(suites.SUITE_NAMES)}))")

END_TO_END = {"setup_s": "s", "session_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The program under test cannot be run from this checkout."""


@dataclass
class Spawned:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], work: str) -> Spawned:
    """Run one child to completion; wall time is spawn to exit, CPU time and
    peak RSS come from its own rusage."""
    out_path, err_path = os.path.join(work, "child.out"), os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Spawned(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   stdout, stderr)


def dpl_argv(op: workloads.Op, spans: str | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-c", DPL, op.command, *op.args]
    return [sys.executable, os.path.join(HERE, "layertrace.py"), spans, "--", op.command, *op.args]


def probe(work: str) -> dict:
    res = spawn([sys.executable, "-c", PROBE], work)
    if res.returncode != 0:
        raise SetupError(f"darwinlab does not import from {SRC}: {res.stderr.strip()[-300:]}")
    info = json.loads(res.stdout)
    if os.path.commonpath([os.path.realpath(info["file"]), os.path.realpath(SRC)]) != os.path.realpath(SRC):
        raise SetupError(f"darwinlab imports from {info['file']}, not from {SRC}")
    return info


def setup_pass(workload_cls, seed: int, work: str):
    """Everything before the first timed operation: check that the program
    runs from this checkout, draw the configs, build the input states."""
    t0 = time.perf_counter()
    program = probe(work)
    wl = workload_cls(seed, work)
    for op in wl.prepare():
        res = spawn(dpl_argv(op), work)
        if res.returncode != 0:
            raise SetupError(f"set-up `dpl {op.command}` exited {res.returncode}: {res.stderr.strip()[-300:]}")
    return time.perf_counter() - t0, wl, program


def run_iteration(wl, i: int, program: dict, work: str, traced: bool, log: list) -> dict:
    """Run the commands of iteration i in order; verify after the last one."""
    ops = wl.iteration(i)
    results, spans = [], []
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        span_file = os.path.join(work, f"spans-{k}.json") if traced else None
        results.append(spawn(dpl_argv(op, span_file), work))
        if traced and os.path.exists(span_file):
            with open(span_file, encoding="utf-8") as fh:
                spans.append(json.load(fh))
            os.unlink(span_file)
    session = time.perf_counter() - t0
    failures = 0
    for op, res in zip(ops, results):
        reason = verify.verify(op, res.returncode, res.stdout, program)
        if reason:
            failures += 1
            print(f"FAILED {op.command} (iteration {i}{', traced' if traced else ''}): {reason} "
                  f"{res.stderr.strip()[-300:]}", file=sys.stderr)
        log.append({"iteration": i, "traced": traced, "command": op.command, "args": list(op.args),
                    "returncode": res.returncode, "wall_s": res.wall_s, "cpu_s": res.cpu_s,
                    "maxrss_kb": res.maxrss_kb, "error": reason})
    for op in ops:
        if "file" in op.expect and os.path.exists(op.expect["file"]):
            os.unlink(op.expect["file"])
        if "dir" in op.expect:
            shutil.rmtree(op.expect["dir"], ignore_errors=True)
    return {"ops": ops, "results": results, "session_s": session, "failures": failures,
            "spans": spans}


def closed_loop(seconds: float, step) -> list:
    """Call step(i) until the next call, predicted from the median so far,
    would end after `seconds`; always at least once."""
    t0 = time.perf_counter()
    done, durations = [], []
    while True:
        s0 = time.perf_counter()
        done.append(step(len(done)))
        durations.append(time.perf_counter() - s0)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return done


def percentile_summary(values: list[float]) -> dict:
    """Median, and the highest whole percentile with at least ten samples
    beyond it (none below 20 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n, "percentile": None, "value": None}
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        out["percentile"] = p
        out["value"] = ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return out


def environment(seed: int, program: dict, wl) -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{index}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{index}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{index}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    n = wl.config["grid"]["n"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": program["numpy"],
        "seed": seed,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k == "DPL_THREADS"},
        "grid_n": n,
        "state_bytes": n**3 * 6 * 16,
    }


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "darwinlab", "cli.py")):
        raise SetupError(f"no darwinlab sources under {SRC}")
    workload_cls = workloads.WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        setups = []
        for _ in range(SETUP_PASSES):
            seconds, wl, program = setup_pass(workload_cls, args.seed, work)
            setups.append(seconds)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "run_seconds": args.seconds, "environment": environment(args.seed, program, wl),
                  "config": wl.config, "setup_s": setups, "ops": []}
        if args.trace:
            return traced_run(args, wl, program, work, record)
        return untraced_run(args, wl, program, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced_run(args, wl, program, work, record) -> dict:
    iterations = closed_loop(args.seconds,
                             lambda i: run_iteration(wl, i, program, work, False, record["ops"]))
    by_command: dict[str, list[float]] = {}
    for it in iterations:
        for op, res in zip(it["ops"], it["results"]):
            by_command.setdefault(f"{op.command}_s", []).append(res.wall_s)
    timings = {
        "setup_s": record["setup_s"],
        "session_s": [it["session_s"] for it in iterations],
        "cpu_s": [sum(r.cpu_s for r in it["results"]) for it in iterations],
        **by_command,
    }
    record["summary"] = {k: percentile_summary(v) for k, v in timings.items()}
    peak = max(r.maxrss_kb for it in iterations for r in it["results"]) / 1024
    metrics = {k: record["summary"][k]["median"] for k in ("setup_s", "session_s", "cpu_s")}
    metrics["peak_rss_mb"] = peak
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    record["attempted"] = sum(len(it["ops"]) for it in iterations)
    record["failed"] = sum(it["failures"] for it in iterations)
    return record


def traced_run(args, wl, program, work, record) -> dict:
    startup = [spawn([sys.executable, "-c", "import darwinlab"], work).wall_s
               for _ in range(STARTUP_SAMPLES)]

    def pair(i):
        plain = run_iteration(wl, i, program, work, False, record["ops"])
        traced = run_iteration(wl, i, program, work, True, record["ops"])
        for op, a, b in zip(plain["ops"], plain["results"], traced["results"]):
            if a.stdout != b.stdout:
                traced["failures"] += 1
                print(f"FAILED {op.command} (iteration {i}): traced output differs from untraced",
                      file=sys.stderr)
        return plain, traced

    pairs = closed_loop(args.seconds, pair)
    per_iteration = [layertrace.aggregate(traced["spans"]) for _, traced in pairs]
    values = {}
    for name in layertrace.PER_LAYER:
        samples = [agg[name] for agg in per_iteration if name in agg]
        if len(samples) == len(per_iteration):
            values[name] = statistics.median(samples)
    values["cli.startup_s"] = statistics.median(startup)
    values["trace.overhead_ratio"] = (statistics.median(t["session_s"] for _, t in pairs)
                                      / statistics.median(p["session_s"] for p, _ in pairs))
    record["absent"] = [name for name in layertrace.PER_LAYER if name not in values]
    record["startup_s"] = startup
    record["per_iteration"] = per_iteration
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in layertrace.PER_LAYER.items() if name in values}
    record["attempted"] = sum(len(it["ops"]) for p in pairs for it in p)
    record["failed"] = sum(it["failures"] for p in pairs for it in p)
    return record


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"# darwinlab benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}, {record['run_seconds']} s")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    if "summary" in record:
        print(f"# {'metric':<14} {'median':>12} {'unit':<6} {'samples':>7}  highest percentile with >=10 beyond")
        for name, s in record["summary"].items():
            tail = f"p{s['percentile']} = {s['value']:.4f}" if s["percentile"] else "none (fewer than 20 samples)"
            print(f"# {name:<14} {s['median']:>12.4f} {'s':<6} {s['samples']:>7}  {tail}")
        print(f"# {'peak_rss_mb':<14} {record['metrics']['peak_rss_mb']['value']:>12.1f} {'MB':<6}")
    else:
        for name, m in record["metrics"].items():
            print(f"# {name:<32} {m['value']:>16.6g} {m['unit']}")
        for name in record["absent"]:
            print(f"# {name:<32} {'absent':>16} (its function no longer exists)")
    rate = record["failed"] / record["attempted"]
    print(f"# {'error_rate':<14} {rate:>12.4f} {'ratio':<6} {record['attempted']:>7}  "
          f"({record['failed']} of {record['attempted']} operations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so the running child is
    # killed and reaped and the work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result_path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print_summary(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
