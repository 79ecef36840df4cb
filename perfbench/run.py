"""Benchmark entry point.

    python3 perfbench/run.py --workload {paper,campaign,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; each run is one fresh process with
``workers=1``.  With ``--trace 0`` a run measures, tracing off, the
end-to-end metrics every workload reports:

- ``setup_s``: the median of several cold set-ups spread over the run;
- ``job_s``: the workload's whole fixed job (``paper``: every table and
  figure; ``campaign``: store write, threshold design and the mitigated
  loop; ``serve``: 1000 fleet ticks plus one crash recovery);
- ``peak_rss_mb``: peak resident memory.

Times are seconds at a reference machine speed (see
:meth:`perfbench.common.PhaseTimes.scale`); the raw seconds are in the
metadata.  With ``--trace 1`` a run does the workload's unit of work once
untraced and once with spans around every layer (:mod:`perfbench.tracing`)
and reports the per-layer metrics.  Either way the outputs are checked,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run metadata
(speed probes, thread settings, sizes, raw samples) goes to the line
before it and to ``.perfbench_run/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# pin numpy's BLAS to one thread before numpy loads: the workloads run with
# workers=1, and a second BLAS thread on a shared two-core box only adds
# scheduling noise
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.getcwd()
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

WORKLOADS = ("paper", "campaign", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import repro
    # benchmark this checkout's sources, never an installed copy
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from "
                         f"{ROOT}/src; run from the root of a checkout")
    import importlib
    module = importlib.import_module(f"perfbench.{args.workload}")
    import_s = time.perf_counter() - start

    from perfbench import common
    outcome = common.Outcome()
    outcome.meta.update(workload=args.workload, seed=args.seed,
                        seconds=args.seconds, trace=args.trace,
                        size=module.SIZE, threads=common.thread_settings())
    os.makedirs(common.RUN_DIR, exist_ok=True)
    try:
        if args.trace:
            from perfbench import tracing
            tracing.run(args.workload, module, args.seed, args.seconds,
                        outcome, import_s)
        else:
            module.run(args.seed, args.seconds, outcome)
    finally:
        common.clean_work_dirs()
    outcome.meta["failures"] = outcome.failures[:50]
    out_dir = os.path.join(common.RUN_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(outcome.meta, fh, indent=1, default=str)
    print(json.dumps({"meta": outcome.meta}, default=str))
    failed = min(len(outcome.failures), outcome.attempted)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
