"""One fresh-process set-up: import cuspinv, load a workload's input files and
build its models, bifurcation diagrams and symplectic models.

Usage: python3 perfbench/setup_probe.py WORKDIR
Prints {"import_s": ...} on success; the caller times the whole process.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import cuspinv.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_s = time.perf_counter() - t0
    from cuspinv.flows import SymplecticModel
    from cuspinv.model import Density, FibrationModel, bifurcation_diagram

    workdir = sys.argv[1]
    with open(os.path.join(workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    names = sorted({name for req in manifest["requests"] for name in req["files"]})
    for name in names:
        with open(os.path.join(workdir, name)) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "kind" in data:
            model = FibrationModel.from_json(data)
            bifurcation_diagram(model)
            if manifest["workload"] == "flows":
                SymplecticModel(model)
        elif isinstance(data, dict):
            Density.from_json(data)
    print(json.dumps({"import_s": import_s}))
