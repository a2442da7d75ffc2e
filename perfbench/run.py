"""crystalmds benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload ppart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: ppart, character, tokuyama, cli (see README.md beside this file).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around each call into a layer.  ``all`` runs
every workload in both modes, each in its own process.  Every output is
checked; the last stdout line is one JSON object, and the exit code is 1 if
any check failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import probed, slowdown, split_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ppart", "character", "tokuyama", "cli")
SETUP_REPS = 5
IMPORT_REPS = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60
# No job starts later than this after the run began, so a much slower
# program still ends within the 180 s a run may take.
DEADLINE_S = 120


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile): the order statistic with exactly ``beyond``
    samples ranked after it, and the nearest-rank percentile it sits at.
    """
    xs = sorted(values)
    if len(xs) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(xs)}")
    k = len(xs) - beyond
    return xs[k - 1], 100.0 * k / len(xs)


def timed(fn):
    """(result, wall seconds, reference seconds).  Reference seconds divide
    the wall time by the slowdown measured just before and just after, which
    removes the machine's speed swings (README.md, "Noise")."""
    before = slowdown()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, wall / ((before + slowdown()) / 2)


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes, int]:
    """Run one process to completion, killing it after CHILD_TIMEOUT_S:
    (exit code, stdout, stderr, peak RSS in KiB of that process alone)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], usage.ru_maxrss


def measure_setup(wl, workload: str) -> float:
    """Median time, in reference seconds, from starting a fresh interpreter
    to the package imported and the workload's root systems built.  The
    child prints time.monotonic() when done; its speed probes are not
    counted.  One unmeasured start first."""
    module = "crystalmds.cli" if workload == "cli" else "crystalmds"
    specs = sorted({(c.family, c.rank) for c in wl.POOLS[workload]})
    code = probed(f"import {module}\n"
                  "from crystalmds import CartanSpec, build_root_system\n"
                  f"for f, r in {specs!r}: build_root_system(CartanSpec(f, r))\n"
                  "print(time.monotonic()); code = 0")
    env = wl.child_env()
    samples = []
    for k in range(SETUP_REPS + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        _, probe_s, slow = split_report(proc.stderr)
        if k:
            samples.append((float(proc.stdout.split()[-1]) - start - probe_s) / slow)
    return statistics.median(samples)


def measure_import(wl) -> float:
    """Median in-process time of ``import crystalmds.cli`` in a fresh child."""
    code = ("import time; t = time.perf_counter(); import crystalmds.cli; "
            "print(time.perf_counter() - t)")
    env = wl.child_env()
    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def resolved_cli_threads() -> int:
    """The CLI's default thread count with CRYSTALMDS_THREADS unset; 1 when
    the CLI no longer has a thread pool."""
    from crystalmds import cli
    default = getattr(cli, "_default_threads", None)
    return default() if default else 1


def metadata(wl) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "cpu_model": cpu,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cli.threads": resolved_cli_threads()}


def run_untraced(wl, workload: str, jobs: list, checker, deadline: float) -> dict:
    """Closed loop over the job list: times each op, then checks its output."""
    walls, refs, dims, failures = [], [], [], []
    peak_child_kib = 0
    expected: dict = {}
    env = wl.child_env()
    for case in jobs:
        if time.monotonic() > deadline:
            break
        try:
            if workload == "cli":
                if case not in expected:
                    expected[case] = wl.ppart_op(case)
                t0 = time.perf_counter()
                rc, out, err, rss = run_child(wl.cli_argv(case), env)
                err, probe_s, slow = split_report(err)
                wall = time.perf_counter() - t0 - probe_s
                ref = wall / slow if slow else wall
                peak_child_kib = max(peak_child_kib, rss)
                witness = (checker.ppart(case, expected[case])
                           or checker.cli(case, rc, out, err, expected[case]))
            else:
                op = getattr(wl, f"{workload}_op")
                out, wall, ref = timed(lambda: op(case))
                witness = getattr(checker, workload)(case, out)
        except Exception as exc:  # an op that raises is a failed op
            witness = f"{case.id}: {type(exc).__name__}: {exc}"
        if witness:
            failures.append(witness)
            print(f"FAIL {witness}", file=sys.stderr)
        else:
            walls.append(wall)
            refs.append(ref)
            dims.append(case.dim)
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"walls": walls, "refs": refs, "dims": dims, "failures": failures,
            "attempted": len(walls) + len(failures),
            "peak_rss_kib": peak_child_kib if workload == "cli" else own_kib}


def compare_traced(workload: str, out, traced) -> bool:
    """True when the traced decomposition reproduced the public result."""
    if workload == "character":
        return out[0] == traced[0] and out[1] == traced[1]
    if workload == "tokuyama":
        quot, rem = traced
        return out.ok and rem.is_zero() and quot == out.quotient
    return out == traced


def run_traced(wl, workload: str, jobs: list, checker, deadline: float) -> dict:
    """Each job runs the public op untraced, then its traced decomposition;
    the two results must agree and the public one must pass its check.  For
    cli the in-process ppart op stands in, and the process runs after it."""
    spans = wl.Spans()
    op_s = traced_s = 0.0
    failures = []
    env = wl.child_env()
    inproc = "ppart" if workload == "cli" else workload
    op = getattr(wl, f"{inproc}_op")
    traced_op = getattr(wl, f"traced_{inproc}")
    attempted = 0
    for case in jobs:
        if time.monotonic() > deadline:
            break
        attempted += 1
        try:
            t0 = time.perf_counter()
            out = op(case)
            t1 = time.perf_counter()
            traced = traced_op(case, spans)
            t2 = time.perf_counter()
            op_s += t1 - t0
            traced_s += t2 - t1
            witness = getattr(checker, inproc)(case, out)
            if not witness and not compare_traced(workload, out, traced):
                witness = f"{case.id}: traced result differs from the public op"
            if not witness and workload == "cli":
                t0 = time.perf_counter()
                rc, stdout, err, _ = run_child(wl.cli_argv(case), env)
                err, probe_s, _ = split_report(err)
                spans.parents["cli.process_s"] += time.perf_counter() - t0 - probe_s
                witness = checker.cli(case, rc, stdout, err, out)
        except Exception as exc:  # an op that raises is a failed op
            witness = f"{case.id}: {type(exc).__name__}: {exc}"
        if witness:
            failures.append(witness)
            print(f"FAIL {witness}", file=sys.stderr)
    return {"spans": spans, "op_s": op_s, "traced_s": traced_s,
            "failures": failures, "attempted": attempted}


def build_root_systems_s(wl, workload: str) -> float:
    """First (uncached) construction of the workload's root systems."""
    specs = {(c.family, c.rank) for c in wl.POOLS[workload]}
    t0 = time.perf_counter()
    for family, rank in specs:
        wl.build_root_system(wl.CartanSpec(family, rank))
    return time.perf_counter() - t0


def end_to_end_metrics(run: dict, setup_s: float) -> tuple[dict, list[str]]:
    """Declared metrics from the job times in reference seconds; the
    wall-clock equivalents go into the notes."""
    def summary(times: list[float]) -> tuple[float, float, float, float]:
        value, pct = tail(times)
        return sum(run["dims"]) / sum(times), statistics.median(times), value, pct

    rate, p50, tail_s, pct = summary(run["refs"])
    metrics = {"setup_s": setup_s, "patterns_per_s": rate, "job_s_p50": p50,
               "job_s_tail": tail_s, "peak_rss_mb": run["peak_rss_kib"] / 1024}
    rate, p50, tail_s, _ = summary(run["walls"])
    notes = [f"job_s_tail is p{pct:.1f} of {len(run['refs'])} samples",
             f"wall clock: patterns_per_s {rate:.6g} 1/s, "
             f"job_s_p50 {p50:.4g} s, job_s_tail {tail_s:.4g} s"]
    return metrics, notes


def per_layer_metrics(run: dict, jobs: int, build_s: float,
                      import_s: float, threads: int) -> dict:
    spans = run["spans"]
    counts = spans.counts
    metrics = {**spans.seconds, **spans.parents, **counts}
    calls = counts["decorations.calls"]
    metrics["coefficients.nonzero_ratio"] = counts["coefficients.nonzero"] / calls if calls else 0.0
    metrics["roots.build_root_system_s"] = build_s
    metrics["series.trace_overhead_s"] = run["traced_s"] - run["op_s"]
    process_s = spans.parents["cli.process_s"]
    if process_s:
        metrics["cli.import_s"] = import_s
        metrics["cli.overhead_s"] = process_s - run["op_s"]
        metrics["series.trace_coverage"] = (jobs * import_s + run["op_s"]) / process_s
    else:
        metrics["series.trace_coverage"] = spans.busy() / run["op_s"] if run["op_s"] else 0.0
    metrics["cli.threads"] = threads
    return metrics


def load_declared() -> dict:
    """Metric names and units from BENCHMARK.json, by mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_one(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    os.environ.pop("CRYSTALMDS_THREADS", None)
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"cannot load crystalmds from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    declared = load_declared()[args.trace]
    load_before = os.getloadavg()
    checker = wl.Checker(wl.load_reference())
    build_s = build_root_systems_s(wl, args.workload)
    jobs = wl.job_list(args.workload, args.seed, args.seconds)
    notes = []
    if args.trace:
        # Half the passes: each job runs twice here, untraced and traced.
        pool = len(wl.POOLS[args.workload])
        jobs = jobs[:pool * -(-len(jobs) // (2 * pool))]
        import_s = measure_import(wl) if args.workload == "cli" else 0.0
        run = run_traced(wl, args.workload, jobs, checker, deadline)
        metrics = per_layer_metrics(run, run["attempted"], build_s, import_s,
                                    resolved_cli_threads())
    else:
        setup_s = measure_setup(wl, args.workload)
        run = run_untraced(wl, args.workload, jobs, checker, deadline)
        metrics = {}
        if len(run["refs"]) > TAIL_BEYOND:
            metrics, notes = end_to_end_metrics(run, setup_s)
        else:
            notes.append(f"only {len(run['refs'])} jobs completed: no tail, no metrics")
    if len(jobs) > run["attempted"]:
        notes.append(f"deadline reached: {len(jobs) - run['attempted']} jobs not started")
    attempted = max(1, run["attempted"])
    failed = len(run["failures"])
    meta = metadata(wl)
    meta.update(seed=args.seed, workload=args.workload, trace=args.trace,
                jobs=len(jobs), job_list_sha256=wl.sha256(
                    "\n".join(c.id for c in jobs)),
                loadavg_before=load_before, loadavg_after=os.getloadavg())
    print(f"meta {json.dumps(meta)}")
    result = {}
    for name, unit in declared.items():
        value = metrics.get(name, 0)
        result[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:>14.6g} {unit}")
    notes.append(f"fail_ratio {failed / attempted:.4g} ({failed} failed of {attempted} attempted)")
    for note in notes:
        print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 and metrics else 1


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; prints each
    report, the workload predictions, and one combined result line."""
    ok = True
    attempted = failed = 0
    combined = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} (exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0
            if proc.returncode not in (0, 1) or not lines:
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}.{name}"] = metric
    for line in predictions(combined):
        print(line)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if ok and failed == 0 else 1


def predictions(m: dict) -> list[str]:
    """The traced shares each workload was chosen for (README.md)."""
    def v(key):
        return m.get(key, {}).get("value", float("nan"))
    checks = [
        ("decorations.decorate_s >= 0.5 * series.p_part_s on ppart",
         v("ppart.decorations.decorate_s") >= 0.5 * v("ppart.series.p_part_s")),
        ("decorations.calls == 0 on character",
         v("character.decorations.calls") == 0),
        ("weightpoly.divide_s > 0 only on tokuyama",
         v("tokuyama.weightpoly.divide_s") > 0 and all(
             v(f"{w}.weightpoly.divide_s") == 0 for w in WORKLOADS if w != "tokuyama")),
        ("coefficients.nonzero_ratio < 0.5 on ppart",
         v("ppart.coefficients.nonzero_ratio") < 0.5),
        ("coefficients.nonzero_ratio > 0.5 on tokuyama",
         v("tokuyama.coefficients.nonzero_ratio") > 0.5),
    ]
    return [f"prediction {'holds' if held else 'FAILS'}: {text}" for text, held in checks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crystalmds" / "__init__.py").is_file():
        print(f"no crystalmds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
