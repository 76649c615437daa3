"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build-suite --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (or any checkout of it): the program is imported
from ``src/`` next to this directory, and stores, scratch files and traces go
under ``.perfbench/`` in the checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  ``--smoke`` runs every workload at a tiny scale and
shows that each correctness check fails when one output is perturbed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The output each smoke perturbation corrupts, per workload.
PERTURBATIONS = {
    "build-suite": ("exact", "approximate"),
    "serve-catalog": ("answer", "fanout"),
    "stream-publish": ("version", "checkpoint", "reader"),
}


def metric_units():
    """``(end-to-end, per-layer)`` metric names and units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({metric["name"]: metric["unit"] for metric in spec[group]}
                 for group in ("end_to_end", "per_layer"))


def _import_program() -> None:
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: the program's source is missing ({source}/repro); "
              f"run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [source, ROOT]


def workloads():
    from perfbench import builds, serve, stream

    return {
        "build-suite": builds.run_suite,
        "serve-catalog": serve.run,
        "stream-publish": stream.run,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, perturb=None):
    """Run one workload; returns ``(context, end-to-end, per-layer)``."""
    from perfbench.common import RunContext

    ctx = RunContext(name, seed, seconds, trace, ROOT, tiny=tiny, perturb=perturb)
    os.makedirs(ctx.work)
    try:
        end_to_end, per_layer = workloads()[name](ctx)
    finally:
        ctx.remove_work()
    return ctx, end_to_end, per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PERTURBATIONS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs of every workload, clean and perturbed")
    args = parser.parse_args(argv)
    _import_program()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    from perfbench.common import host_probe_ms

    end_to_end_units, per_layer_units = metric_units()
    probe_before = host_probe_ms()
    ctx, end_to_end, per_layer = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    probe_after = host_probe_ms()
    probe = (probe_before + probe_after) / 2
    missing = [name for name in end_to_end_units if not end_to_end.get(name)]
    if missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 1
    if args.trace:
        traces = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(traces, exist_ok=True)
        ctx.tracer.export_jsonl(os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl"))
        values = {name: float(per_layer.get(name, 0.0)) for name in per_layer_units}
        values["host.probe_ms"] = probe
        units = per_layer_units
    else:
        values = {name: float(end_to_end[name]) for name in end_to_end_units}
        units = end_to_end_units
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host.probe_ms": {"before": probe_before, "after": probe_after},
                      "notes": ctx.notes, "failures": ctx.failures[:5]}))
    print(json.dumps({
        "correct": ctx.correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def smoke() -> int:
    """Every workload at tiny scale: clean runs pass, each perturbation is caught."""
    problems = []
    end_to_end_units, _ = metric_units()
    for name, kinds in PERTURBATIONS.items():
        for trace in (False, True):
            ctx, end_to_end, _ = run_workload(name, 1, 0, trace, tiny=True)
            if not ctx.correct or ctx.failed:
                problems.append(f"{name} (trace={int(trace)}): clean run failed: "
                                f"{ctx.failures[:3]}")
            missing = [m for m in end_to_end_units if not end_to_end.get(m)]
            if missing:
                problems.append(f"{name}: no measurement for {missing}")
        for kind in kinds:
            ctx, _, _ = run_workload(name, 1, 0, False, tiny=True, perturb=kind)
            if not ctx.tampered or ctx.correct:
                problems.append(f"{name}: perturbing one {kind} output went unnoticed")
        print(f"smoke {name}: clean runs pass; perturbed {', '.join(kinds)} caught"
              if not problems else f"smoke {name}: {problems}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
