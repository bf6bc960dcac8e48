"""Self-check of the benchmark: its oracles must fire on planted wrong values.

Usage (from the repository root): python3 perfbench/selfcheck.py

Runs one request of each kind on seed 0, checks that the program's genuine
output passes every oracle, then plants one defect per kind into that output
(one chart cell 1e-6 off, a lattice vector scaled by 1.001, ...) and checks
that the benchmark counts it as a failed operation.  A second output with
another digest for the same request must also count as failed.  Exits 1 when
any of these does not hold.
"""

import json
import os
import sys
import types

import run

SEED = 0


def _csv_edit(out: str, pick, edit) -> str:
    """Apply ``edit`` to the first data row (index, fields) that ``pick`` accepts."""
    lines = out.splitlines()
    for n, line in enumerate(lines[1:]):
        fields = line.split(",")
        if pick(n, fields):
            edit(fields)
            lines[n + 1] = ",".join(fields)
            return "\n".join(lines) + "\n"
    raise AssertionError("no row to plant a defect in")


def _scale_field(col: int, factor: float):
    def edit(fields):
        fields[col] = f"{float(fields[col]) * factor:.12g}"

    return edit


def _json_edit(out: str, edit) -> str:
    data = json.loads(out)
    edit(data)
    return json.dumps(data)


def _lattice_scaled(data):
    data["basis"][1] = [v * 1.001 for v in data["basis"][1]]
    t1, t2 = data["basis"][1]
    data["verification"][1].update(t1=t1, t2=t2)
    data["verification"][2].update(t1=t1 / 2.0, t2=t2 / 2.0)


def plants(kind: str, sample: set):
    """(label, tamper function) pairs for one request kind."""
    if kind == "chart_compact":
        return [
            ("sampled cell Pi 1e-6 off", lambda o: _csv_edit(o, lambda n, f: n in sample and f[3], _scale_field(3, 1 + 1e-6))),
            ("I differs from lambda", lambda o: _csv_edit(o, lambda n, f: f[5] and float(f[5]), _scale_field(5, 1 + 1e-6))),
            ("Pi left blank", lambda o: _csv_edit(o, lambda n, f: f[3], lambda f: f.__setitem__(3, ""))),
            ("Pi_circ on a wide cell", lambda o: _csv_edit(o, lambda n, f: f[2] == "wide", lambda f: f.__setitem__(4, "1"))),
        ]
    if kind == "chart_local":
        return [("narrow loop period 1e-6 off", lambda o: _csv_edit(
            o, lambda n, f: n not in sample and f[2] == "narrow", _scale_field(4, 1 + 1e-6)))]
    if kind == "decompose":
        return [("a0_fit 1e-2 off", lambda o: _json_edit(o, lambda d: d["cross_check"].update(a0_fit=d["cross_check"]["a0_fit"] * 1.01)))]
    if kind.startswith("invariants"):
        return [("h(lambda) 1e-6 off", lambda o: _json_edit(o, lambda d: d["h_samples"][0].__setitem__(1, d["h_samples"][0][1] * (1 + 1e-6))))]
    if kind.startswith("compare_self"):
        return [("self-comparison not equivalent", lambda o: _json_edit(o, lambda d: d.update(equivalent=False)))]
    if kind.startswith("compare_scaled"):
        return [("action ratio 1e-3 off", lambda o: _json_edit(o, lambda d: d["checks"]["I_circ"]["residuals"].__setitem__(
            0, d["checks"]["I_circ"]["residuals"][0] * 1.001)))]
    if kind.startswith("lattice"):
        return [("lattice vector scaled by 1.001", lambda o: _json_edit(o, _lattice_scaled))]
    return [("transported image 1e-6 off", lambda o: _json_edit(o, lambda d: d["points"][0]["image"].__setitem__(
        0, d["points"][0]["image"][0] + 1e-6)))]


def main() -> int:
    sys.path.insert(0, run.SRC)
    import cuspinv.cli as cli

    ok = True
    for workload in run.gen.WORKLOADS:
        workdir = os.path.join(run.WORK, f"selfcheck-{workload}")
        manifest = run.gen.generate(workload, SEED, workdir)
        reqs = manifest["requests"]
        client = run.Client(cli, workdir, reqs)
        firsts = {}
        for i, req in enumerate(reqs):
            firsts.setdefault(req["kind"], i)
        for kind, i in firsts.items():
            _, _, code, out = client.request(i)
            genuine = run.failed_ops(reqs[i], i, code, out, workdir, SEED)
            lines = [(f"genuine {kind} output passes", genuine == 0)]
            n_rows = out.count("\n") - 1
            sample = run.oracles.chart_sample(run.np.random.default_rng([SEED, i]), n_rows) if kind.startswith("chart") else set()
            for label, tamper in plants(kind, sample):
                failed = run.failed_ops(reqs[i], i, code, tamper(out), workdir, SEED)
                lines.append((f"{kind}: {label} -> {failed} failed", failed > 0))
            for text, good in lines:
                print(f"{'PASS' if good else 'FAIL'} {text}")
                ok = ok and good
        # determinism: the same request printing other bytes in a later repetition
        i = firsts[reqs[0]["kind"]]
        (key, value), = [(k, v) for k, v in client.outputs.items() if k[0] == i]
        fake = types.SimpleNamespace(records=[(i, 0, key[1], 0.0, 0.0), (i, 0, "other", 0.0, 0.0)],
                                     outputs={key: value, (i, "other"): value})
        store = os.path.join(workdir, "digests.json")
        if os.path.exists(store):
            os.remove(store)
        _, failed = run.score(fake, manifest, workdir, store, "selfcheck")
        good = failed == reqs[i]["ops"]
        print(f"{'PASS' if good else 'FAIL'} {workload}: changed output digest -> {failed} failed")
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
