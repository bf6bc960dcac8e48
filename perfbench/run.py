#!/usr/bin/env python3
"""Benchmark of cuspinv on three seeded workloads, driven in process through
``cuspinv.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload {chart,invariants,flows} --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client in one process and one thread; the
next request is sent when the previous one has returned.  The loop runs whole
passes over the workload's request list until ``--seconds`` have elapsed, so
every run holds the same request mix.  BLAS pools are pinned to one thread.

Set-up (``setup_s``) is timed in fresh processes, started one at a time, that
import cuspinv, load the workload's input files and build its models; the
import is never paid inside a timed request.

On a shared 2-vCPU Intel Xeon host, other tenants slowed every core by up to
2x in phases lasting seconds to minutes, which moved raw request times by 15-30% between
runs.  So while set-ups and requests run, a SIGALRM handler in the same
thread runs a fixed calibration loop (``reference_ms``: a scipy quad of a
Python integrand and a short RK45 solve, no cuspinv) every CALIBRATION_PERIOD_S,
and times are reported at reference speed: (wall time - time spent in the
handler) x REFERENCE_MS / (median calibration time within
CALIBRATION_WINDOW_S of the interval).  A faster program lowers the wall time
and leaves the calibration alone; a slower machine stretches both.  Over 25 s
windows of chart, lattice and fit units the corrected times spread 5-7%
(IQR) where the raw ones spread 33%.  The loop slows somewhat more under
contention than the requests do (log-log slope 0.9), so the most contended
runs read somewhat fast.  Traced runs report raw times.  The report line
keeps the raw wall times and the mean slow-down.

Every output is checked by the independent oracles in ``oracles.py``, and its
digest must repeat across all runs of one seed on the same sources.

With ``--trace 1`` the run times one untraced pass, then a traced pass that
replays each request through the public functions beneath it (``spans.py``),
then one request of each kind from the other workloads, so that every layer
has a measurement.

Standard output: one report line with the environment, counts, p90 latency
and failed share, then, last, the result line the contract asks for.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import gen  # noqa: E402
import numpy as np  # noqa: E402
import oracles  # noqa: E402
from scipy.integrate import quad, solve_ivp  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_RUNS = {0: 7, 1: 3}
SETUP_TIMEOUT_S = 60
P90_MIN_REQUESTS = 100  # at least ten samples beyond the p90
PROBE_GRID = "7x7"
REFERENCE_MS = 0.87  # the calibration loop on an uncontended core of a 2-vCPU Intel Xeon host
CALIBRATION_PERIOD_S = 0.1
CALIBRATION_WINDOW_S = 0.5
_REF_COEFFS = np.array([1.0, 0.3, -0.2, 0.1, 0.05])
_REF_TERMS = {(0, 0, 0): 1.0, (0, 1, 0): 0.2, (2, 0, 0): -0.1, (0, 0, 1): 0.05}


def _ref_density(x, y, lam):
    acc = 0.0
    for (i, j, k), c in _REF_TERMS.items():
        acc = acc + c * x**i * y**j * lam**k
    return acc


def _ref_integrand(theta: float) -> float:
    return _ref_density(math.sin(theta), 0.3, 0.01) / math.sqrt(1.0 + float(np.polyval(_REF_COEFFS, theta)))


def _ref_rhs(_t, state):
    return np.array([state[1] * _ref_density(state[0], state[1], 0.01), -state[0]])


def reference_ms() -> float:
    """Wall time of the fixed calibration loop, in ms: an adaptive quad of a
    Python integrand and a short RK45 solve, the mix the workloads run."""
    t0 = time.perf_counter()
    quad(_ref_integrand, 0.0, 1.5, epsabs=1e-13, epsrel=1e-12)
    solve_ivp(_ref_rhs, (0.0, 0.3), [1.0, 0.0], method="RK45", rtol=1e-10, atol=1e-10)
    return (time.perf_counter() - t0) * 1e3


class Calibrator:
    """Samples the calibration loop from a SIGALRM handler while active."""

    def __init__(self):
        self.samples = []  # (start, ms)

    def _tick(self, _signum, _frame) -> None:
        self.samples.append((time.perf_counter(), reference_ms()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference_speed(self, t0: float, dt: float) -> float:
        """Seconds the interval [t0, t0 + dt] would take at reference speed."""
        inside = sum(r for t, r in self.samples if t0 <= t <= t0 + dt) / 1e3
        near = [r for t, r in self.samples if t0 - CALIBRATION_WINDOW_S <= t <= t0 + dt + CALIBRATION_WINDOW_S]
        near = near or [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return (dt - inside) * REFERENCE_MS / statistics.median(near)


def _tree_digest(*roots: str) -> str:
    """Digest of the files under ``roots``: the program's sources and a run's inputs."""
    h = hashlib.sha256()
    for root in roots:
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "threads": threading.active_count(),
    }


def _setup_once(workdir: str) -> tuple[float, float, float]:
    """One fresh-process set-up: (start, wall seconds, the import time it reports)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workdir],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return t0, dt, json.loads(proc.stdout)["import_s"]


class Client:
    """The closed-loop client: one request at a time through ``cli.main``."""

    def __init__(self, cli, workdir: str, requests: list):
        self.cli = cli
        self.argvs = [[os.path.join(workdir, a) if a in r["files"] else a for a in r["argv"]] for r in requests]
        self.records = []  # (request index, exit code, digest, start, wall seconds)
        self.outputs = {}  # (request index, digest) -> (exit code, output)
        self.errors = []

    def send(self, argv) -> tuple[float, float, int, str]:
        """(start, wall seconds, exit code, output) of one ``cli.main`` call."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad input this way
                code = exc.code if isinstance(exc.code, int) else 2
        dt = time.perf_counter() - t0
        if code != 0:
            self.errors.append(err.getvalue().strip())
        return t0, dt, code, out.getvalue()

    def request(self, i: int) -> tuple[float, float, int, str]:
        t0, dt, code, out = sent = self.send(self.argvs[i])
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        self.records.append((i, code, digest, t0, dt))
        self.outputs.setdefault((i, digest), (code, out))
        return sent

    def loop(self, seconds: float) -> float:
        """Whole passes over the request list until ``seconds`` have elapsed."""
        t0 = time.perf_counter()
        while True:
            for i in range(len(self.argvs)):
                self.request(i)
            if time.perf_counter() - t0 >= seconds:
                return time.perf_counter() - t0


def _one_dof_passage(terms: dict, h: float) -> float:
    """The program's one-dof passage of sum c x^i y^j at level h."""
    from cuspinv.model import Density, one_dof_model
    from cuspinv.quadrature import passage_time

    return passage_time(one_dof_model(Density([(c, e) for e, c in terms.items()])), h)


def failed_ops(req: dict, i: int, code: int, out: str, workdir: str, seed: int) -> int:
    if code != 0:
        return req["ops"]
    kind = req["kind"]
    try:
        if kind.startswith("chart"):
            return oracles.check_chart(req, out, workdir, np.random.default_rng([seed, i]))
        if kind == "decompose":
            return oracles.check_decompose(req, out, workdir, _one_dof_passage)
        if kind.startswith("invariants"):
            return oracles.check_invariants(req, out, workdir)
        if kind.startswith("compare"):
            return oracles.check_compare(req, out, workdir)
        if kind.startswith("lattice"):
            return oracles.check_lattice(req, out, workdir)
        return oracles.check_transport(req, out, workdir)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
        return req["ops"]  # output missing fields or not parseable


def score(client: Client, manifest: dict, workdir: str, store: str, store_key: str) -> tuple[int, int]:
    """(attempted, failed) operations over every request the client sent.

    An operation fails when its request exited non-zero, missed an oracle, or
    printed bytes whose digest differs from the first seen for the same
    sources and inputs (kept in the JSON file ``store`` across runs).
    """
    reqs = manifest["requests"]
    verdicts = {key: failed_ops(reqs[key[0]], key[0], code, out, workdir, manifest["seed"])
                for key, (code, out) in client.outputs.items()}
    try:
        with open(store) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    ref = known.setdefault(store_key, {})
    attempted = failed = 0
    for i, _code, digest, *_times in client.records:
        ref.setdefault(str(i), digest)
        ops = reqs[i]["ops"]
        attempted += ops
        failed += ops if digest != ref[str(i)] else verdicts[(i, digest)]
    with open(store + ".tmp", "w") as fh:
        json.dump(known, fh, sort_keys=True)
    os.replace(store + ".tmp", store)
    return attempted, failed


def _probe_requests(workload: str, seed: int) -> list[tuple[str, dict]]:
    """One request of each kind from the other workloads, charts at a small grid."""
    out = []
    for other in gen.WORKLOADS:
        if other == workload:
            continue
        wd = os.path.join(WORK, f"{other}-{seed}")
        seen = set()
        for req in gen.generate(other, seed, wd)["requests"]:
            if req["kind"] in seen:
                continue
            seen.add(req["kind"])
            if "--grid" in req["argv"]:
                argv = list(req["argv"])
                argv[argv.index("--grid") + 1] = PROBE_GRID
                req = dict(req, argv=argv)
            out.append((wd, req))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cuspinv", "cli.py")):
        print(f"perfbench: no cuspinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    manifest = gen.generate(args.workload, args.seed, workdir)
    import cuspinv.cli as cli
    import spans

    client = Client(cli, workdir, manifest["requests"])
    with Calibrator() as cal:
        setups = [_setup_once(workdir) for _ in range(SETUP_RUNS[args.trace])]
        if not args.trace:
            wall = client.loop(args.seconds)
    store, store_key = os.path.join(WORK, "digests.json"), _tree_digest(SRC, workdir)

    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = score(client, manifest, workdir, store, store_key)
        times = [cal.at_reference_speed(t0, dt) for *_, t0, dt in client.records]
        metrics = {
            "setup_s": (statistics.median(cal.at_reference_speed(t0, dt) for t0, dt, _ in setups), "s"),
            "ops_per_s": ((attempted - failed) / sum(times), "1/s"),
            "req_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra = {"wall_s": wall, "wall_ops_per_s": (attempted - failed) / wall,
                 "wall_req_p50_ms": statistics.median(r[4] for r in client.records) * 1e3,
                 "slowdown": sum(r[4] for r in client.records) / sum(times)}
    else:
        t0 = time.perf_counter()
        for i in range(len(client.argvs)):
            client.request(i)
        untraced = time.perf_counter() - t0
        tr = spans.Tracer()
        rng = np.random.default_rng(args.seed)
        t0 = time.perf_counter()
        for i, req in enumerate(manifest["requests"]):
            tr.rid = str(i)
            top, _ = tr.call("cli.main", None, client.request, i)
            spans.replay(tr, top, req, lambda n: oracles.load(workdir, n), rng)
        traced = time.perf_counter() - t0
        for wd, req in _probe_requests(args.workload, args.seed):
            tr.rid = f"probe:{req['kind']}"
            argv = [os.path.join(wd, a) if a in req["files"] else a for a in req["argv"]]
            top, _ = tr.call("cli.main", None, client.send, argv)
            spans.replay(tr, top, req, lambda n, wd=wd: oracles.load(wd, n), rng)
        tr.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
        attempted, failed = score(client, manifest, workdir, store, store_key)
        out_bytes = [len(out.encode()) for _, out in client.outputs.values()]
        values = spans.layer_metrics(tr, out_bytes, statistics.median(s[2] for s in setups), traced / untraced - 1.0)
        metrics = {name: (values[name], unit) for name, unit in spans.layer_metric_specs()}
        times = [r[4] for r in client.records]
        extra = {"untraced_s": untraced, "traced_s": traced}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": len(times),
        "req_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) >= P90_MIN_REQUESTS else None,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "setup_runs_raw_s": [dt for _, dt, _ in setups],
        "fractions": manifest["fractions"],
        "errors": sorted(set(client.errors))[:5],
        "environment": _environment(),
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
