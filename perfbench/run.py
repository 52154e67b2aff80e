"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root. It prints every metric by name, value and
unit, the output check and the run's provenance, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--trace 0`` measures one pass of the workload, a fixed amount of work of
about 16 to 33 seconds whatever ``--seconds`` says, so that two versions of
the library are timed on the same work; ``--seconds`` is recorded with the
run. ``--trace 1`` runs one untraced and one traced pass. Each run is also
appended, with its provenance, to ``perfbench/out/results.jsonl``;
a traced run writes its spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.
``perfbench/compare.py`` reports two such result files side by side.

BLAS threads: ``OPENBLAS_NUM_THREADS`` (or ``OMP_NUM_THREADS``) when set,
otherwise the CPUs this process may run on, and never more than those.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def pin_blas_threads() -> int:
    """Set the BLAS thread count before numpy loads; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = nproc
    if requested and requested.isdigit() and int(requested) > 0:
        threads = min(int(requested), nproc)
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    os.environ["OMP_NUM_THREADS"] = str(threads)
    return nproc


def import_library() -> None:
    """Import snnadv from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "snnadv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no snnadv sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import snnadv
    if Path(snnadv.__file__).resolve().parent != (src / "snnadv").resolve():
        raise SystemExit(f"perfbench: imported snnadv from {snnadv.__file__}, not {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "transfer", "blend", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="recorded with the run; a run is always one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    import_library()
    import bench

    if args.trace:
        out = bench.run_traced(args.workload, args.seed)
    else:
        out = bench.run_untraced(args.workload, args.seed)
    prov = bench.provenance(args.workload, args.seed, args.seconds, bool(args.trace), nproc)

    for name, (value, unit) in out.metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    for name, value in out.detail.items():
        print(f"{name:28s} {value:14.6g}")
    verdict = "PASS" if out.correct else "FAIL"
    print(f"check: {verdict} ({out.attempted} operations, {out.failed} failed)")
    for reason in out.failures:
        print(f"  failure: {reason}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    result = {"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": {name: {"value": value if math.isfinite(value) else None,
                                 "unit": unit}
                          for name, (value, unit) in out.metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"provenance": prov, "detail": out.detail,
                             "failures": out.failures, "result": result}) + "\n")
    if out.spans:
        bench.tracing.write_spans(out.spans, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
