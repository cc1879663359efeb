"""One process of a benchmark run: a set-up probe or the job stream.

``run.py`` starts this file with a fresh interpreter.  The process puts the
checkout's ``src`` first on ``sys.path``, imports the package, builds the
workload from ``--seed`` and reports on the last line of its standard
output, as JSON, the ``time.monotonic()`` reading at which set-up was done.
``CLOCK_MONOTONIC`` is shared by all processes, so the parent turns that
into the time from process start to the first timed iteration.

With ``--role jobs`` the process then runs one warm-up job, runs timed
jobs back to back for ``--seconds``, reads its peak resident memory and
only then checks the outputs.  With ``--trace 1`` it alternates untraced
and traced jobs, at most ``MAX_TRACED_JOBS`` traced ones, so that the
tracing overhead is measured in the same process, and measures
memory-copy bandwidth at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

# numpy, scipy and the package are imported inside functions, not here,
# so that the set-up time and ``import_s`` of a process include them.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REL_TOL = 1e-10
MIN_TIMED_JOBS = 3
MAX_TRACED_JOBS = 10  # bounds the spans kept in memory and written out


def _rel_err(a, b):
    import numpy as np

    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / scale


def _close(a, b):
    """Elementwise relative agreement of two sequences of numbers."""
    return len(a) == len(b) and all(abs(u - v) <= REL_TOL * abs(v) for u, v in zip(a, b))


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _read_csv(path):
    """(header dict, column names, rows of floats) of a saddleprox CSV log."""
    header, rows, columns = {}, [], None
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                header[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, rows


def _pgm_samples(path, shape):
    """16-bit samples of a binary graymap, parsed from the raster tail."""
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    count = shape[0] * shape[1]
    if not data.startswith(b"P5") or len(data) < 2 * count:
        raise ValueError("%s is not a 16-bit P5 graymap" % path)
    return np.frombuffer(data[-2 * count:], dtype=">u2").reshape(shape).astype(np.int64)


class _CliWorkload:
    """A workload whose job is one in-process ``saddleprox`` command."""

    argv: list

    def setup(self):
        pass

    def run(self):
        from saddleprox import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError("saddleprox %s exited with %d" % (self.argv[0], code))


class PottsCli(_CliWorkload):
    """``saddleprox potts`` on a 64x64 one-shape image, run in-process."""

    n = 64
    iters = 400
    reference_iters = 600
    log_stride = 50
    prefix_iters = 50
    err_tol = 0.5  # iters_to_tol: err_sq at most half of the first logged value

    def __init__(self, seed, outdir):
        self.seed = seed
        self.prefix = os.path.join(outdir, "run")
        self.argv = ["potts", "--synthetic", str(self.n), str(self.n), str(seed),
                     "--p", "inf", "--n-shapes", "1", "--noise-sigma", "0",
                     "--reference-iters", str(self.reference_iters),
                     "--iters", str(self.iters), "--log-stride", str(self.log_stride),
                     "--out-prefix", self.prefix]
        self.iterations = self.reference_iters + self.iters

    def digest(self, _result):
        return _digest([self.prefix + suffix for suffix in
                        ("_log.csv", "_denoised.pgm", "_reference.pgm")])

    def check(self, _result):
        import numpy as np
        from saddleprox import core, potts, schedules

        import reference

        header, columns, rows = _read_csv(self.prefix + "_log.csv")
        tau, sigma, omega = (float(header[k]) for k in ("tau", "sigma", "omega"))
        triple, _ = schedules.potts_steps(1.0, 1e-3, math.inf)
        checks = {"steps_match_calculator":
                  (tau, sigma, omega) == (triple.tau, triple.sigma, triple.omega)}

        f = potts.gen_synthetic(self.n, self.n, self.seed, n_shapes=1, noise_sigma=0.0)
        ref = reference.iterate(math.inf, 1.0, 1e-3, f, tau, sigma, omega,
                                self.reference_iters)
        logged, prev, x_n = {}, (f, np.zeros(f.shape + (2,))), None
        for k, (x, y) in enumerate(ref, 1):
            if k <= self.iters and (k % self.log_stride == 0 or k == self.iters):
                step = math.sqrt(np.sum((x - prev[0]) ** 2) + np.sum((y - prev[1]) ** 2))
                logged[k] = (x.copy(), y.copy(), step)
            if k == self.iters:
                x_n = x.copy()
            prev = (x, y)
        x_r, y_r = prev

        # Program iterates over a short prefix, step by step.
        problem = potts.PottsProblem(potts.PottsConfig(1.0, 1e-3, math.inf), f)
        state = core.PrimalDualState.initial(f.ravel(), np.zeros(problem.dual_dim))
        worst = 0.0
        for k, (x, y) in enumerate(reference.iterate(math.inf, 1.0, 1e-3, f, tau, sigma,
                                                     omega, self.prefix_iters), 1):
            state = core.step(problem, triple, state)
            worst = max(worst, _rel_err(state.x, x.ravel()), _rel_err(state.y, y.ravel()))
        checks["prefix_iterates_match_transcription"] = worst <= REL_TOL

        # Every logged row against the transcription.
        want_rows = []
        for k in sorted(logged):
            x, y, step = logged[k]
            err = np.sum((x - x_r) ** 2) + np.sum((y - y_r) ** 2)
            want_rows.append([k, reference.objective(math.inf, 1.0, 1e-3, f, x), step, err])
        checks["csv_columns"] = columns == ["iter", "objective", "step_norm",
                                            "err_sq_vs_reference"]
        checks["csv_rows_match_transcription"] = (
            len(rows) == len(want_rows)
            and all(_close(row, want) for row, want in zip(rows, want_rows)))
        for name, x in (("_denoised.pgm", x_n), ("_reference.pgm", x_r)):
            samples = _pgm_samples(self.prefix + name, f.shape)
            want = np.rint(np.clip(x, 0.0, 1.0) * 65535)
            checks["pgm%s_matches_transcription" % name[:-4]] = bool(
                np.max(np.abs(samples - want)) <= 1)

        errs = [row[3] for row in rows]
        reached = [int(row[0]) for row in rows if row[3] <= self.err_tol * errs[0]]
        info = {"iters_to_tol": reached[0] if reached else self.iters + 1,
                "err_sq_last_over_first": errs[-1] / errs[0]}
        return checks, info


class PottsQuiet:
    """Library ``solve`` on a 1024x1024 six-shape noisy image, quiet options."""

    n = 1024
    iters = 5
    step_tol = 0.8  # iters_to_tol: step norm at most 0.8 of the first one

    def __init__(self, seed, _outdir):
        self.seed = seed
        self.iterations = self.iters

    def setup(self):
        import numpy as np
        from saddleprox import potts, schedules

        self.f = potts.gen_synthetic(self.n, self.n, self.seed, n_shapes=6,
                                     noise_sigma=0.05)
        self.triple, _ = schedules.potts_steps(1.0, 1e-3, 1.0)
        self.problem = potts.PottsProblem(potts.PottsConfig(1.0, 1e-3, 1.0), self.f)
        self.x0 = self.f.ravel().copy()
        self.y0 = np.zeros(self.problem.dual_dim)

    def _solve(self, log_stride):
        from saddleprox import core

        return core.solve(self.problem, self.triple, self.x0, self.y0,
                          core.SolveOptions(max_iters=self.iters, log_stride=log_stride))

    def run(self):
        return self._solve(self.iters)

    def digest(self, result):
        state, _ = result
        return hashlib.sha256(state.x.tobytes() + state.y.tobytes()).hexdigest()

    def check(self, result):
        import numpy as np

        import reference

        state, _ = result
        logged_state, records = self._solve(1)
        t = self.triple
        x, y, steps = self.f, np.zeros(self.f.shape + (2,)), []
        for x_new, y_new in reference.iterate(1.0, 1.0, 1e-3, self.f, t.tau, t.sigma,
                                              t.omega, self.iters):
            steps.append(math.sqrt(np.sum((x_new - x) ** 2) + np.sum((y_new - y) ** 2)))
            x, y = x_new, y_new
        checks = {
            "final_iterate_matches_transcription":
                _rel_err(state.x, x.ravel()) <= REL_TOL
                and _rel_err(state.y, y.ravel()) <= REL_TOL,
            "logged_run_matches_quiet_run":
                self.digest((logged_state, None)) == self.digest(result),
            "step_norms_match_transcription":
                _close([r.step_norm for r in records], steps),
        }
        first = records[0].step_norm
        reached = [r.iteration for r in records if r.step_norm <= self.step_tol * first]
        return checks, {"iters_to_tol": reached[0] if reached else self.iters + 1}


class NashMesh(_CliWorkload):
    """``saddleprox nash`` mesh-independence table, run in-process."""

    sizes = (63, 127, 255)
    iters = 12
    tol = 1e-12

    def __init__(self, _seed, outdir):
        self.out = os.path.join(outdir, "nash.csv")
        self.argv = ["nash", "--sizes", ",".join(map(str, self.sizes)),
                     "--iters", str(self.iters), "--out", self.out]
        self.iterations = self.iters * len(self.sizes)

    def digest(self, _result):
        return _digest([self.out])

    def check(self, _result):
        _, columns, rows = _read_csv(self.out)
        checks = {"csv_columns": columns == ["iter"] + ["dist_n%d" % n for n in self.sizes],
                  "csv_rows": [row[0] for row in rows] == list(range(1, self.iters + 1))}
        first = []
        for col in range(1, len(self.sizes) + 1):
            hits = [int(row[0]) for row in rows if row[col] <= self.tol]
            first.append(hits[0] if hits else None)
        checks["every_size_reaches_1e-12"] = None not in first
        return checks, {"iters_to_tol": max(first) if None not in first else self.iters + 1}


WORKLOADS = {"potts-64-cli": PottsCli, "potts-1024-quiet": PottsQuiet,
             "nash-mesh": NashMesh}


def copy_gbps(mib=64, repeats=5):
    """Bytes read plus bytes written per second by one ``np.copyto``."""
    import numpy as np

    src = np.ones(mib * 2**20 // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def _layers(units):
    return [{"wall_s": wall, "layers": {k: dict(v) for k, v in layers.items()}}
            for wall, layers in units]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("setup", "jobs"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.monotonic()
    if args.workload == "potts-1024-quiet":
        import saddleprox.core, saddleprox.potts, saddleprox.schedules  # noqa: E401,F401
    else:
        import saddleprox.cli  # noqa: F401
    import_s = time.monotonic() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.outdir)
    if tracer is not None:
        tracer.root("setup", workload.setup)
        tracer.uninstall()
    else:
        workload.setup()
    ready = time.monotonic()
    import numpy
    import scipy

    report = {"ready": ready, "import_s": import_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}

    if args.role == "jobs":
        report.update(run_jobs(args, workload, tracer))
    if tracer is not None:
        report["setup_units"] = _layers(tracer.units("setup"))
    print(json.dumps(report))
    return 0


def run_jobs(args, workload, tracer):
    """Warm-up, timed jobs, peak memory, then output checks."""
    os.makedirs(args.outdir, exist_ok=True)
    jobs = []  # (traced, wall seconds, output digest, error text)

    def one(traced):
        gc.collect()
        error, result = None, None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = tracer.root("job", workload.run) if traced else workload.run()
        except Exception as exc:  # counted as a failed job, reported below
            error = "%s: %s" % (type(exc).__name__, exc)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        digest = workload.digest(result) if error is None else None
        return traced, wall, digest, error, result

    warm = one(False)
    first_result = warm[4]
    start = time.perf_counter()
    while (len(jobs) < MIN_TIMED_JOBS * (1 + args.trace)
           or time.perf_counter() - start < args.seconds):
        if args.trace and len(jobs) == 2 * MAX_TRACED_JOBS:
            break
        jobs.append(one(bool(args.trace) and len(jobs) % 2 == 1)[:4])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = [e for _, _, _, e in [warm[:4]] + jobs if e is not None]
    checks, info = {}, {}
    if warm[3] is None:
        try:
            checks, info = workload.check(first_result)
        except Exception as exc:  # a check that raises is a failed check
            checks = {"check_raised": False}
            errors.append("check: %s: %s" % (type(exc).__name__, exc))
    checks_pass = warm[3] is None and bool(checks) and all(checks.values())
    failed = sum(1 for _, _, d, _ in [warm[:4]] + jobs
                 if not checks_pass or d is None or d != warm[2])
    out = {"walls": [w for t, w, _, _ in jobs if not t],
           "iterations": workload.iterations,
           "peak_rss_mb": peak_rss_mb,
           "attempted": 1 + len(jobs), "failed": failed,
           "checks": checks, "info": info, "errors": errors[:5]}
    if tracer is not None:
        out["job_units"] = _layers(tracer.units("job"))
        out["copy_gbps"] = copy_gbps()
        path = os.path.join(ROOT, ".bench_out", "spans-%s-seed%d.jsonl"
                            % (args.workload, args.seed))
        tracer.dump(path)
    shutil.rmtree(args.outdir, ignore_errors=True)
    return out


if __name__ == "__main__":
    sys.exit(main())
