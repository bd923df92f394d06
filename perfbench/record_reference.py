"""Record the reference estimates the benchmark's correctness checks use.

From the repository root::

    python3 perfbench/record_reference.py

Runs each 6T and array request shape of the workloads once with a much
tighter target (GIS to 2 % relative error, MC on 1024 samples) and
writes ``perfbench/reference.json``.  Re-run it only when the program's
estimates are meant to change; the benchmark refuses a reference whose
request shape no longer matches its workload.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from run import bootstrap

SEED = 20261016


def main() -> int:
    from repro import api
    from repro.bench.meta import host_metadata
    from workloads import SERVICE_6T, ArrayReadMC, CellReadGIS, ServiceMixed

    shapes = {
        CellReadGIS.name: replace(CellReadGIS.request(SEED), budget=60000, rel_err=0.02),
        ArrayReadMC.name: replace(ArrayReadMC.request(SEED), budget=1024, rel_err=None),
    }
    for kind in SERVICE_6T:
        shapes[f"service-{kind}"] = replace(
            ServiceMixed.request_6t(kind, SEED), budget=60000, rel_err=0.02
        )
    references = {}
    for label, request in shapes.items():
        t0 = time.perf_counter()
        result = api.estimate(request)
        print(f"{label}: p_fail {result.p_fail:.5g} std_err {result.std_err:.3g} "
              f"n_evals {result.n_evals} ({time.perf_counter() - t0:.1f} s)", flush=True)
        references[label] = {
            "request": request.to_json(),
            "p_fail": result.p_fail,
            "std_err": result.std_err,
            "n_evals": result.n_evals,
            "converged": result.converged,
        }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(
        {"meta": host_metadata(), "references": references}, indent=1, sort_keys=True
    ) + "\n")
    return 0


if __name__ == "__main__":
    bootstrap()
    sys.exit(main())
