"""dvs benchmark: one closed-loop client, BLAS pinned to one thread.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_small --seed 1000 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``sweep_small`` -- solves 200 instances of the criterion-4 family
  (n = 2..4, K = 4..12; ``--seed 1000`` gives exactly criterion 4's),
  each with its oracle optimum computed during set-up.
* ``suite_n50`` -- solves the fixed generator suite at n = 50,
  ``GenSpec(n=50, m=5, seed=4292 + i)`` for i < 3 (4292 is the ROADMAP's
  ``4242 + n``).  The seed only rotates where the cycle starts: one n = 50
  solve costs 0.4 to 4.3 s depending on how long its line search idles at
  the round-off floor, and permuting an instance's variables moves it
  across that range, so a seed-drawn set of instances moves the run's
  figures by tens of percent.
* ``verify_reports`` -- runs ``dvs.cli.main(["check", problem, report])``
  in-process on reports solved and written during set-up: criterion 4's
  first 12 instances and the suite's first n = 50 instance, fixed for the
  same reason, in an order the seed rotates.

Each run is a closed loop with one client.  The workload's main operation
runs for ``--seconds`` (and at least once per input); between those, the
other operation (checks for the solve workloads, solves for
verify_reports) takes a fixed share of the time, so every end-to-end
metric is measured on every workload.  Every timing is scaled by the machine's
current speed on a fixed reference computation (see :class:`Reference`)
and taken per input as the median of its repeats; throughput is inputs
per second over one pass.
With ``--trace 1`` a fixed number of passes runs untraced, each followed
by the same pass with spans around every layer (``tracing.py``); the
per-layer metrics are printed instead, and the traced results must equal
the untraced ones.

Correctness is checked outside the timed region: every solve must repeat
its first result exactly, match the oracle optimum where one was
computed, and every report must pass ``dvs check``.  Any failure makes the
exit code 1.  The last line of standard output is the result JSON; the
line before it carries the environment (versions, BLAS threads), the
machine's slowdown and the sample counts.  Spans are written to
``perfbench/out/``.
"""

import os
import sys

# Pin BLAS before numpy loads: at the default thread count one n=20 solve
# has measured anywhere from 0.13 to 1.1 s within one process.
_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_PRELOADED = "numpy" in sys.modules
for _var in _PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads scipy's own OpenBLAS)

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sweep_small", "suite_n50", "verify_reports")
SWEEP_VALUE_SETS = ((0.0, 1.0), (1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (2.0, 5.0))
SUITE_BASE_SEED = 4242  # ROADMAP suite: GenSpec(n, m=5, seed=4242 + n)
SETUP_REPEATS = 5      # at least, and until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0
# Share of the loop's time given to the other kind of operation.  Verify
# gets more, since its n=50 set-up solve is long and needs repeats.
SECONDARY_SHARE = {"sweep_small": 0.15, "suite_n50": 0.1, "verify_reports": 0.4}
TAIL_BEYOND = 10
CRITERION4_SEED = 1000  # tests/test_acceptance.py seeds its sweep 1000 + k
OBJECTIVE_TOL = 1e-6
# Median time of Reference.sample on an unloaded 2-core x86-64 box
# (numpy 2.4, scipy 1.17, scipy-openblas 0.3.31, one BLAS thread); it only
# sets the scale of the reported times.
REFERENCE_S = 2.9e-3
REFERENCE_INTERVAL = 0.2   # seconds between reference samples
REFERENCE_BURST = 5        # most samples taken at once, after a long op
REFERENCE_WINDOW_S = 5.0   # the current speed is the median over this window


@dataclass(frozen=True)
class Sizes:
    sweep: int           # criterion-4 instances solved by sweep_small
    suite_n: int         # n of the generator-suite instances
    suite: int           # suite instances solved by suite_n50
    verify_small: int    # criterion-4 reports checked by verify_reports
    sweep_passes: int    # traced passes (and as many untraced) per workload
    suite_passes: int
    verify_passes: int


SIZES = {
    "full": Sizes(sweep=200, suite_n=50, suite=3, verify_small=12,
                  sweep_passes=10, suite_passes=2, verify_passes=200),
    # For the smoke test only: every code path in a few seconds.
    "tiny": Sizes(sweep=12, suite_n=10, suite=2, verify_small=12,
                  sweep_passes=1, suite_passes=1, verify_passes=1),
}


# ---------------------------------------------------------------- environment


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy loaded."""
    counts = {}
    for module, libdir in ((numpy, "numpy.libs"), (scipy, "scipy.libs")):
        pattern = os.path.join(os.path.dirname(module.__file__), os.pardir,
                               libdir, "lib*openblas*.so*")
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)  # already loaded: returns that handle
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    counts[os.path.basename(path)] = int(fn())
                    break
    return counts


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        numpy_blas, scipy_blas = _blas_version(numpy), _blas_version(scipy)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": numpy_blas,
        "scipy_openblas": scipy_blas,
        "blas_env": {v: os.environ.get(v) for v in _PIN_VARS},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def check_pin(env: dict):
    """Refuse to time anything unless BLAS really runs on one thread."""
    if NUMPY_PRELOADED:
        raise SystemExit("perfbench: numpy was loaded before the BLAS pin")
    bad = {k: v for k, v in env["blas_threads"].items() if v != 1}
    if bad:
        raise SystemExit(f"perfbench: BLAS pin did not take: {bad}")


def import_dvs():
    """Import dvs from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dvs
        import dvs.cli
        import dvs.generator
        import dvs.oracle
        import dvs.serialize
        import dvs.solver
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dvs from {src}: {exc}")
    if not Path(dvs.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: dvs resolved to {dvs.__file__}, "
                         f"not under {src}")
    return dvs


class Reference:
    """A fixed computation, independent of dvs, timed all through a run.

    The machine these figures come from is shared: for a minute or more at
    a time everything on it runs up to 1.7 times slower.  Every timing is
    therefore scaled by REFERENCE_S over the reference's current time (the
    median of its samples over the last REFERENCE_WINDOW_S seconds, taken
    every REFERENCE_INTERVAL seconds), so the figures read as on the
    unloaded machine.  The work mixes the two kinds dvs does: a Python loop over
    small arrays (the per-call cost of the criterion-4 family) and dense
    Cholesky solves at K = 250 (the n = 50 dual evaluation).
    """

    def __init__(self):
        rng = numpy.random.default_rng(1205)
        dense = rng.random((250, 250))
        self.dense = dense @ dense.T + 250 * numpy.eye(250)
        small = rng.random((12, 12))
        self.small = small @ small.T + 12 * numpy.eye(12)
        self.rhs = rng.random(250)
        self.times = []
        self.stamps = []
        for _ in range(REFERENCE_BURST):
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        w = self.rhs[:12].copy()
        for _ in range(400):
            w = numpy.maximum(w - 0.01 * (self.small @ w - self.rhs[:12]), 0.0)
        for _ in range(4):
            scipy.linalg.cho_solve(scipy.linalg.cho_factor(self.dense), self.rhs)
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.stamps.append(t1)

    def scale(self) -> float:
        """Multiply a time measured now by this to get the unloaded time."""
        since = time.perf_counter() - REFERENCE_WINDOW_S
        recent = [t for t, at in zip(self.times, self.stamps) if at >= since]
        if len(recent) < REFERENCE_BURST:
            recent = self.times[-REFERENCE_BURST:]
        return REFERENCE_S / statistics.median(recent)


# ---------------------------------------------------------------- inputs


@dataclass
class Case:
    key: str
    problem: object
    optimum: float = None        # oracle optimum, where affordable
    problem_path: Path = None
    report_path: Path = None


def sweep_cases(dvs, seed: int, count: int) -> list:
    """The criterion-4 family: feasible GenSpec(n=2+k%3, m=1+k%2, ...)."""
    from dvs.errors import Infeasible
    from dvs.generator import GenSpec
    cases = []
    k = 0
    while len(cases) < count:
        k += 1
        if k > 100 * count:
            raise RuntimeError("criterion-4 family keeps coming out infeasible")
        spec = GenSpec(n=2 + k % 3, m=1 + k % 2, seed=seed + k,
                       value_set=SWEEP_VALUE_SETS[k % 4])
        p = dvs.generator.generate(spec)
        try:
            _, value, _, _ = dvs.oracle.enumerate_discrete(p)
        except Infeasible:
            continue
        cases.append(Case(key=f"sweep:{seed + k}", problem=p, optimum=value))
    return cases


def suite_cases(dvs, n: int, count: int) -> list:
    """The fixed generator suite at size n: GenSpec(n, m=5, seed=4242+n+i)."""
    from dvs.generator import GenSpec
    return [Case(key=f"suite:{s}",
                 problem=dvs.generator.generate(GenSpec(n=n, m=5, seed=s)))
            for s in range(SUITE_BASE_SEED + n, SUITE_BASE_SEED + n + count)]


def rotated(cases: list, seed: int) -> list:
    start = seed % len(cases)
    return cases[start:] + cases[:start]


# ---------------------------------------------------------------- operations


class Run:
    """Operations of one benchmark run, with their timings and outcomes."""

    def __init__(self, dvs, tracer: Tracer = None):
        self.dvs = dvs
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failures = []
        self.repeat_mismatches = 0
        self.solve_times = defaultdict(list)
        self.check_times = defaultdict(list)
        self.outcomes = []    # (case, x bytes, status, objective) per solve
        self.reports = {}     # key -> first SolveReport
        self.checks = []      # (case, exit code, stdout) per check
        self.reference = Reference()

    def fail(self, message: str):
        self.failures.append(message)
        print(f"perfbench: FAIL {message}", file=sys.stderr)

    @contextlib.contextmanager
    def tracing(self, on: bool = True):
        """Trace the operations run inside this block (when `on`)."""
        if not on:
            yield
            return
        with self.tracer.installed():
            self.traced = True
            try:
                yield
            finally:
                self.traced = False

    def _call(self, name, fn, *args):
        if self.traced:
            return self.tracer.call(name, fn, args)
        return fn(*args)

    def solve(self, case: Case):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            r = self._call("solve", self.dvs.solver.solve, case.problem)
        except Exception:
            self.fail(f"solve {case.key} raised:\n{traceback.format_exc()}")
            return
        self.solve_times[case.key].append(
            (time.perf_counter() - t0) * self.reference.scale())
        self.outcomes.append((case, r.x.tobytes(), r.status, r.objective))
        self.reports.setdefault(case.key, r)

    def check(self, case: Case):
        self.attempted += 1
        argv = ["check", str(case.problem_path), str(case.report_path)]
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self._call("cli.main", self.dvs.cli.main, argv)
        except Exception:
            self.fail(f"check {case.key} raised:\n{traceback.format_exc()}")
            return
        self.check_times[case.key].append(
            (time.perf_counter() - t0) * self.reference.scale())
        self.checks.append((case, code, out.getvalue()))

    def write_files(self, cases, work: Path):
        """Write each case's problem and first report for `dvs check`."""
        ser = self.dvs.serialize
        for case in cases:
            report = self.reports.get(case.key)
            if report is None or case.report_path is not None:
                continue
            name = case.key.replace(":", "-")
            case.problem_path = work / f"problem-{name}.json"
            case.report_path = work / f"report-{name}.json"
            case.problem_path.write_bytes(ser.emit_problem(case.problem))
            case.report_path.write_bytes(ser.emit_report(report))


def closed_loop(cases, primary, secondary, seconds: float, share: float,
                calibrate) -> None:
    """One client, closed loop: primary ops over cases in order until
    `seconds` passed and each case ran once.  After each primary op,
    secondary ops (over the cases the primary op has reached) run while
    they have taken less than `share` of the primary ops' time,
    so their samples spread over the whole run instead of landing
    together in one slow spell of a shared machine.  `calibrate` samples
    the machine's speed once per REFERENCE_INTERVAL that has passed (at
    most REFERENCE_BURST times after one long op).
    """
    n = len(cases)
    start = calibrated = time.perf_counter()
    primary_s = secondary_s = 0.0
    i = j = 0
    while i < n or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        primary(cases[i % n])
        i += 1
        t1 = time.perf_counter()
        primary_s += t1 - t0
        due = int((t1 - calibrated) / REFERENCE_INTERVAL)
        if due:
            for _ in range(min(due, REFERENCE_BURST)):
                calibrate()
            t1 = calibrated = time.perf_counter()
        while secondary_s < share * primary_s:
            secondary(cases[j % min(i, n)])
            j += 1
            t0, t1 = t1, time.perf_counter()
            secondary_s += t1 - t0


def one_pass(cases, op) -> float:
    """Run op once over every case; return the seconds taken."""
    start = time.perf_counter()
    for case in cases:
        op(case)
    return time.perf_counter() - start


# ---------------------------------------------------------------- correctness


def gate(run: Run):
    """Outside the timed region: every output must be right and repeatable."""
    first = {}
    for case, x, status, value in run.outcomes:
        ref = first.setdefault(case.key, (x, status, value))
        if (x, status, value) != ref:
            run.repeat_mismatches += 1
            run.fail(f"solve {case.key} not repeatable: {status} {value!r} "
                     f"after {ref[1]} {ref[2]!r}")
        if case.optimum is not None and (abs(value - case.optimum)
                                         > OBJECTIVE_TOL * (1 + abs(case.optimum))):
            run.fail(f"solve {case.key}: objective {value!r}, "
                     f"oracle optimum {case.optimum!r}")
    for case, code, out in run.checks:
        if code != 0 or out.strip() != "PASS":
            run.fail(f"check {case.key} exit {code}: {out.strip()}")


# ---------------------------------------------------------------- metrics


def timing(times_by_key: dict):
    """Per-input median repeat -> (per second, p50 s, tail s, tail pct, n).

    Each input counts once however often it ran, so throughput is inputs
    per second over one pass.  The tail is the highest percentile with at
    least TAIL_BEYOND inputs above it; with too few inputs for that
    percentile to reach the median it is the slowest input.
    """
    per_key = sorted(statistics.median(v) for v in times_by_key.values())
    n = len(per_key)
    if not n:
        return 0.0, 0.0, 0.0, 0.0, 0
    if n > 2 * TAIL_BEYOND:
        tail, pct = per_key[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = per_key[-1], 100.0
    return n / sum(per_key), statistics.median(per_key), tail, pct, n


def end_to_end(run: Run, setup_times: list, context: dict) -> dict:
    solves_per_s, _, solve_tail, solve_pct, n_solve = timing(run.solve_times)
    checks_per_s, check_p50, _, _, n_check = timing(run.check_times)
    # The criterion-4 family splits evenly into fast oracle fallbacks and
    # slower certified ascents, so a median over all solves sits in the gap
    # between the two and jumps from seed to seed; the median certified
    # solve is both steady and the latency of what dvs is for.
    certified_keys = [k for k, r in run.reports.items()
                      if r.status == "CertifiedGlobal"]
    _, certified_p50, _, _, n_certified = timing(
        {k: run.solve_times[k] for k in certified_keys if k in run.solve_times})
    context.update({
        "solve_inputs": n_solve,
        "certified_inputs": n_certified,
        "solve_samples": sum(map(len, run.solve_times.values())),
        "solve_tail_percentile": round(solve_pct, 3),
        "check_inputs": n_check,
        "check_samples": sum(map(len, run.check_times.values())),
        "setup_runs": len(setup_times),
        "machine_slowdown": statistics.median(run.reference.times) / REFERENCE_S,
        "reference_samples": len(run.reference.times),
    })
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solves_per_s": (solves_per_s, "1/s"),
        "certified_p50_ms": (1e3 * certified_p50, "ms"),
        "solve_tail_ms": (1e3 * solve_tail, "ms"),
        "certified_rate": (len(certified_keys) / len(run.reports), "share"),
        "checks_per_s": (checks_per_s, "1/s"),
        "check_p50_ms": (1e3 * check_p50, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _first_gap_iter(r):
    """First ascent index whose dual value is within tol_gap of the objective."""
    tol = r.tol_gap * (1.0 + abs(r.objective))
    for i, v in enumerate(r.trace):
        if abs(v - r.objective) <= tol:
            return i
    return None


def per_layer(run: Run, rates: dict) -> dict:
    t = run.tracer
    ascents = t.by_name("solver.maximize_dual")
    iterations = sum(s["attrs"]["iterations"] for s in ascents)
    factorizations = t.by_name("dual.factorize_g")
    roots = t.by_name("solve") + t.by_name("cli.main")
    root_wall = sum(s["end"] - s["start"] for s in roots)
    root_self = sum(s["self"] for s in roots)
    solve_wall = sum(s["end"] - s["start"] for s in t.by_name("solve"))

    reports = list(run.reports.values())
    gaps = [(r.iterations, _first_gap_iter(r)) for r in reports
            if r.certificate.status == "CertifiedGlobal"]
    gaps = [(n, g) for n, g in gaps if g is not None]
    all_iters = sum(n for n, _ in gaps)
    terminations = defaultdict(int)
    for r in reports:
        terminations[r.solver_status] += 1

    def nbytes(*names):
        return sum(s["attrs"].get("bytes", 0) for n in names for s in t.by_name(n))

    return {
        "lift.busy_s": (t.busy("lift"), "s"),
        "lift.calls": (len(t.by_name("lift")), "count"),
        "lift.bytes_computed": (nbytes("lift"), "bytes"),
        "solver.maximize_dual.busy_s": (t.busy("solver.maximize_dual"), "s"),
        "solver.ms_per_iteration": (
            1e3 * t.busy("solver.maximize_dual") / iterations if iterations else 0.0, "ms"),
        "solver.iterations_p50": (statistics.median(r.iterations for r in reports), "count"),
        "solver.first_gap_iter_p50": (
            statistics.median(g for _, g in gaps) if gaps else 0.0, "count"),
        "solver.tail_iter_share": (
            sum(n - g for n, g in gaps) / all_iters if all_iters else 0.0, "share"),
        "solver.termination.Converged": (terminations["Converged"], "count"),
        "solver.termination.LineSearchStall": (terminations["LineSearchStall"], "count"),
        "solver.termination.MaxIterations": (terminations["MaxIterations"], "count"),
        "solver.self_s": (t.self_time("solve"), "s"),
        "dual.factorize_g.calls": (len(factorizations), "count"),
        "dual.factorize_g.busy_s": (t.busy("dual.factorize_g"), "s"),
        "dual.factorize_g.not_pd": (
            sum(not s["attrs"]["pd"] for s in factorizations), "count"),
        "dual.recover_y.busy_s": (t.busy("dual.recover_y"), "s"),
        "solver.round_binary.busy_s": (t.busy("solver.round_binary"), "s"),
        "solver.verify_kkt.busy_s": (t.busy("solver.verify_kkt"), "s"),
        "oracle.calls": (len(t.by_name("oracle.enumerate_discrete")), "count"),
        "oracle.busy_share": (
            t.busy("oracle.enumerate_discrete") / solve_wall if solve_wall else 0.0, "share"),
        "oracle.fallback_rate": (
            sum(r.status == "OracleFallback" for r in reports) / len(reports), "share"),
        "serialize.parse_problem.busy_s": (t.busy("serialize.parse_problem"), "s"),
        "serialize.parse_report.busy_s": (t.busy("serialize.parse_report"), "s"),
        "serialize.check.busy_s": (t.busy("serialize.check"), "s"),
        "serialize.emit_report.busy_s": (t.busy("serialize.emit_report"), "s"),
        "serialize.bytes": (nbytes("serialize.parse_problem", "serialize.parse_report",
                                   "serialize.emit_report"), "bytes"),
        "cli.main.self_s": (t.self_time("cli.main"), "s"),
        "generator.busy_s": (t.busy("generator.generate"), "s"),
        "trace.untraced_ops_per_s": (rates["untraced"], "1/s"),
        "trace.traced_ops_per_s": (rates["traced"], "1/s"),
        "trace.overhead_share": (1.0 - rates["traced"] / rates["untraced"], "share"),
        "trace.accounted_share": (1.0 - root_self / root_wall if root_wall else 0.0, "share"),
    }


# ---------------------------------------------------------------- workloads


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes, context: dict) -> tuple:
    """Run one workload; return (Run, metrics {name: (value, unit)})."""
    dvs = import_dvs()
    run = Run(dvs, Tracer() if trace else None)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if workload == "verify_reports":
            def build():
                cases = rotated(
                    sweep_cases(dvs, CRITERION4_SEED, sizes.verify_small)
                    + suite_cases(dvs, sizes.suite_n, 1), seed)
                for case in cases:
                    run.solve(case)
                run.write_files(cases, work)
                return cases
            cases, setup_times = set_up(run, trace, build)
            rates = timed_loop(run, cases, run.check, run.solve, seconds,
                               SECONDARY_SHARE[workload], trace,
                               sizes.verify_passes)
        else:
            if workload == "sweep_small":
                build = lambda: sweep_cases(dvs, seed, sizes.sweep)  # noqa: E731
                trace_passes = sizes.sweep_passes
            else:
                build = lambda: rotated(  # noqa: E731
                    suite_cases(dvs, sizes.suite_n, sizes.suite), seed)
                trace_passes = sizes.suite_passes
            cases, setup_times = set_up(run, trace, build)

            def solve(case):
                run.solve(case)
                if not trace:  # traced runs write their reports below
                    run.write_files([case], work)
            rates = timed_loop(run, cases, solve, run.check, seconds,
                               SECONDARY_SHARE[workload], trace, trace_passes)
            # Every report is re-verified at least once, traced when tracing.
            with run.tracing(trace):
                for case in cases:
                    run.write_files([case], work)
                    if trace or case.key not in run.check_times:
                        run.check(case)
        gate(run)
        if trace:
            return run, per_layer(run, rates)
        return run, end_to_end(run, setup_times, context)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(run: Run, trace: bool, build) -> tuple:
    """Build the inputs repeatedly (once, traced, when tracing)."""
    if trace:
        with run.tracing():
            return build(), []
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        cases = build()
        t1 = time.perf_counter()
        run.reference.sample()
        times.append((t1 - t0) * run.reference.scale())
    return cases, times


def timed_loop(run: Run, cases, primary, secondary, seconds: float,
               share: float, trace: bool, trace_passes: int) -> dict:
    """Untraced closed loop; when tracing, untraced and traced passes of
    the primary op alone, alternating so that both see the same machine."""
    if not trace:
        closed_loop(cases, primary, secondary, seconds, share,
                    run.reference.sample)
        return {}
    untraced = traced = 0.0
    for _ in range(trace_passes):
        untraced += one_pass(cases, primary)
        with run.tracing():
            traced += one_pass(cases, primary)
    ops = trace_passes * len(cases)
    return {"untraced": ops / untraced, "traced": ops / traced}


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    env = environment()
    check_pin(env)
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "size": args.size, **env}
    run, metrics = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), SIZES[args.size], context)
    context["attempted"] = run.attempted
    failed = min(len(run.failures), run.attempted)
    context["failed"] = failed
    context["error_rate"] = failed / max(run.attempted, 1)
    if args.trace:
        context["traced_equals_untraced"] = run.repeat_mismatches == 0
        run.tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", context)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
