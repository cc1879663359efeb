"""saddleprox benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload potts-64-cli --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, a table

Each run starts ``SETUP_PROBES`` set-up probes and then one job-stream
process (``worker.py``), one after the other, never two at once, with
BLAS/OpenMP threads pinned to 1.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics from a traced run.  The last
line of standard output is the result object; the lines before it are
the machine stamp, the checks and the metrics in readable form.  The exit
status is 0 only if every output check passed.  See NOTES.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("potts-64-cli", "potts-1024-quiet", "nash-mesh")
SETUP_PROBES = 7
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (metric, unit) of the end-to-end run and of the traced run.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("iters_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("core.step.calls", "count"), ("core.step.self_s", "s"),
    ("core.solve.self_s", "s"), ("core.solve.objective_useful_frac", "ratio"),
    ("core.iters_to_tol", "iter"),
    ("potts.grad_x.self_s", "s"), ("potts.grad_y.self_s", "s"),
    ("potts.prox_primal.s", "s"), ("potts.prox_dual.s", "s"),
    ("potts.primal_objective.calls", "count"), ("potts.primal_objective.self_s", "s"),
    ("potts.dh.calls", "count"), ("potts.dh.s", "s"), ("potts.dh.bytes_computed", "B"),
    ("potts.dht.calls", "count"), ("potts.dht.s", "s"),
    ("potts.dht.bytes_computed", "B"),
    ("potts.kappa_z.s", "s"), ("potts.kappa_y.s", "s"), ("potts.huber_value.s", "s"),
    ("nash.poisson.calls", "count"), ("nash.poisson.s", "s"),
    ("nash.grad_x.self_s", "s"), ("nash.grad_y.self_s", "s"),
    ("nash.prox.s", "s"), ("nash.manufacture.s", "s"),
    ("schedules.potts_steps.s", "s"),
    ("cli.main.self_s", "s"), ("cli.write_csv.s", "s"), ("cli.write_csv.bytes", "B"),
    ("pgm.write_pgm.s", "s"), ("pgm.write_pgm.bytes", "B"),
    ("setup.import_s", "s"), ("machine.copy_gbps", "GB/s"),
    ("trace.overhead_frac", "ratio"), ("trace.attributed_frac", "ratio"),
]
# Per-layer figures that must repeat exactly from one traced job to the next.
EXACT_FIELDS = ("calls", "bytes", "bytes_computed", "logged_objective")


def machine_stamp():
    stamp = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        stamp["cpu"] = models[0] if models else platform.processor()
    except OSError:
        stamp["cpu"] = platform.processor()
    if shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30,
                             env=dict(os.environ, LC_ALL="C")).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                stamp[key.strip().replace(" cache", "")] = value.strip()
    stamp["threads"] = {k: os.environ[k] for k in THREAD_VARS}
    return stamp


def spawn(role, args, outdir, deadline):
    """Run one worker process; return (report, seconds from start to set-up done)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", outdir]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("%s process for %s ran past the deadline"
                           % (role, args.workload))
    if proc.returncode != 0:
        raise RuntimeError("%s process for %s exited with %d"
                           % (role, args.workload, proc.returncode))
    report = json.loads(stdout.strip().splitlines()[-1])
    return report, report["ready"] - t0


def _median_layer(units, layer, field):
    return statistics.median(u["layers"].get(layer, {}).get(field, 0.0) for u in units)


def per_layer_metrics(jobs, setups, info, copy_gbps, import_s):
    """Per-job medians plus per-set-up medians, keyed by the PER_LAYER names."""
    values = {"core.iters_to_tol": info.get("iters_to_tol", 0),
              "setup.import_s": statistics.median(import_s),
              "machine.copy_gbps": copy_gbps}
    walls = statistics.median(u["wall_s"] for u in jobs)
    values["trace.attributed_frac"] = statistics.median(
        sum(v["self_s"] for k, v in u["layers"].items() if k != "job") / u["wall_s"]
        for u in jobs)
    objective_calls = _median_layer(jobs, "potts.primal_objective", "calls")
    logged = _median_layer(jobs, "core.solve", "logged_objective")
    values["core.solve.objective_useful_frac"] = (
        logged / objective_calls if objective_calls else 1.0)
    for name, _ in PER_LAYER:
        if name in values or name.startswith("trace."):
            continue
        layer, _, field = name.rpartition(".")
        values[name] = (_median_layer(jobs, layer, field)
                        + _median_layer(setups, layer, field))
    return values, walls


def trace_consistent(units):
    """Counts repeat job to job, and self times add up to each job's wall time."""
    problems = []
    first = units[0]["layers"]
    for u in units[1:]:
        for layer in set(first) | set(u["layers"]):
            for field in EXACT_FIELDS:
                a = first.get(layer, {}).get(field, 0.0)
                b = u["layers"].get(layer, {}).get(field, 0.0)
                if a != b:
                    problems.append("%s.%s differs between traced jobs: %r vs %r"
                                    % (layer, field, a, b))
    for u in units:
        selfs = [v["self_s"] for v in u["layers"].values()]
        if min(selfs) < -1e-9 or abs(sum(selfs) - u["wall_s"]) > 1e-9 * max(1.0, u["wall_s"]):
            problems.append("self times do not add up to the traced wall time")
    return problems


def run_one(args):
    """Return (result object, readable lines) of one run of one workload."""
    deadline = time.monotonic() + DEADLINE_S
    outbase = os.path.join(ROOT, ".bench_out")
    os.makedirs(outbase, exist_ok=True)
    lines = ["workload %s seed %d trace %d" % (args.workload, args.seed, args.trace)]
    setups, imports, setup_units = [], [], []
    for k in range(SETUP_PROBES):
        report, setup_s = spawn("setup", args, os.path.join(outbase, "probe%d" % k),
                                deadline)
        setups.append(setup_s)
        imports.append(report["import_s"])
        setup_units += report.get("setup_units", [])
    report, setup_s = spawn("jobs", args, os.path.join(outbase, "jobs-%d" % os.getpid()),
                            deadline)
    setups.append(setup_s)
    imports.append(report["import_s"])
    setup_units += report.get("setup_units", [])
    lines.append("versions %s" % json.dumps(report["versions"], sort_keys=True))

    correct = report["failed"] == 0
    for name, ok in sorted(report["checks"].items()):
        lines.append("check %-40s %s" % (name, "pass" if ok else "FAIL"))
    for error in report["errors"]:
        lines.append("error %s" % error)
    for key, value in sorted(report["info"].items()):
        lines.append("info %s = %r" % (key, value))
    lines.append("failed_frac = %d/%d = %.4f"
                 % (report["failed"], report["attempted"],
                    report["failed"] / report["attempted"]))

    walls = report["walls"]
    if args.trace:
        units = report["job_units"]
        problems = trace_consistent(units)
        correct = correct and not problems
        lines += ["trace %s" % p for p in problems]
        values, traced_wall = per_layer_metrics(units, setup_units, report["info"],
                                                report["copy_gbps"], imports)
        values["trace.overhead_frac"] = traced_wall / statistics.median(walls)
        metrics = PER_LAYER
        lines.append("%d traced and %d untraced jobs; spans in .bench_out/" %
                     (len(units), len(walls)))
    else:
        # The fastest decile of jobs: the host slows the vCPU in phases of a
        # few seconds, which moves a run's median job by up to 40% (NOTES.md).
        wall = statistics.quantiles(walls, n=10, method="inclusive")[0]
        values = {"setup_s": statistics.median(setups), "wall_s": wall,
                  "iters_per_s": report["iterations"] / wall,
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = END_TO_END
        lines.append("%d timed jobs of %d iterations, %d set-ups"
                     % (len(walls), report["iterations"], len(setups)))
    for name, unit in metrics:
        lines.append("%-36s %14.6g %s" % (name, values[name], unit))
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in metrics}}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "saddleprox", "__init__.py")):
        print("bench: no saddleprox sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    print("machine %s" % json.dumps(machine_stamp(), sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result, lines = run_one(argparse.Namespace(**dict(vars(args), workload=name)))
        except (RuntimeError, ValueError, KeyError) as exc:
            print("bench: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results.append((name, result))
    if len(results) == 1:
        combined = results[0][1]
    else:
        combined = {"correct": all(r["correct"] for _, r in results),
                    "attempted": sum(r["attempted"] for _, r in results),
                    "failed": sum(r["failed"] for _, r in results),
                    "metrics": {"%s.%s" % (name, key): value for name, r in results
                                for key, value in r["metrics"].items()}}
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
