#!/usr/bin/env python3
"""The advisor's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload tune-tpch --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.json`` for why each exists):

* ``tune-tpch``     — cold ``Session.tune`` calls on TPC-H, SELECT- and
  INSERT-intensive requests alternating.
* ``estimate-tpch`` — ``SizeEstimator.estimate_many`` over TPC-H's full
  compressed candidate population, with and without deduction.
* ``serve-sales``   — an in-process ``AdvisorService`` over HTTP: one
  closed-loop caller taking turns between reads on one Sales context
  and jobs on another.
* ``all``           — each of the above in its own interpreter.

Every workload is a closed loop: a caller waits for each reply before
sending the next request.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs half the window untraced and half with
every layer's public entry points wrapped, and reports per-layer
numbers, each operation's unattributed time and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any operation whose
output does not match its fingerprint in ``fingerprints.json`` makes the
command exit non-zero.  ``--record`` rewrites ``fingerprints.json`` from
the current program by running every request the workloads can send.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ("tune-tpch", "estimate-tpch", "serve-sales")
DEFAULT_SEED = 1
#: extra set-ups (each in a fresh interpreter) behind the reported
#: median ``setup_s``.
SETUP_REPEATS = 2


def _fail_layout(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _program_available() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail_layout(f"no program source under {ROOT / 'src'}; run from "
                     "a checkout of the repository")
    if not SPEC.is_file():
        _fail_layout(f"missing {SPEC.name} at the repository root")
    sys.path.insert(0, str(ROOT / "src"))


def _workload_class(name: str):
    if name == "tune-tpch":
        from wl_tune import TuneTPCH
        return TuneTPCH
    if name == "estimate-tpch":
        from wl_estimate import EstimateTPCH
        return EstimateTPCH
    from wl_serve import ServeSales
    return ServeSales


def spec_metrics(section: str) -> list[dict]:
    return json.loads(SPEC.read_text())[section]


# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Each workload in a fresh interpreter; exits non-zero if any did."""
    status = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            status = 1
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def repeat_setups(args) -> list[float]:
    """``setup_s`` of fresh interpreters that only set up."""
    out = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report setup_s, exit (used for the "
                             "repeated set-ups behind the median)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite fingerprints.json for --workload")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (smoke tests only; outputs are "
                             "not fingerprint-checked)")
    args = parser.parse_args(argv)
    _program_available()
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    if args.workload == "all":
        return run_all(args)

    from harness import Harness

    recorded = {}
    if FINGERPRINTS.is_file():
        recorded = json.loads(FINGERPRINTS.read_text()).get(
            args.workload, {}
        )
    harness = Harness(
        workload_cls=_workload_class(args.workload),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        recorded=recorded,
        record=args.record,
        quick=args.quick,
        t_process=T_PROCESS,
    )
    if args.setup_only:
        print(json.dumps({"setup_s": harness.setup_only()}))
        return 0
    if args.record:
        fingerprints = harness.record_all()
        data = (json.loads(FINGERPRINTS.read_text())
                if FINGERPRINTS.is_file() else {})
        data[args.workload] = dict(sorted(fingerprints.items()))
        FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True)
                                + "\n")
        print(f"recorded {len(fingerprints)} fingerprints for "
              f"{args.workload}")
        return 0

    harness.run()
    if not args.trace and not args.quick:
        harness.setup_samples = [harness.setup_s] + repeat_setups(args)
    result = harness.result(
        spec_metrics("per_layer" if args.trace else "end_to_end"))
    for line in harness.report_lines():
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
