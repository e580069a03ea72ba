"""eppa benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload base4 --seed 1 --seconds 10 --trace 0

Run from the root of an eppa checkout; the library is imported from
``src``.  Scratch files (corrupted certificate copies, structure files for
the CLI verbs, and the record of certificate texts this checkout's code has
already re-verified) go to ``.bench_build/perfbench``.

With ``--trace 0`` the run measures whole passes over the workload until
``--seconds`` have elapsed (at least one pass) and reports the end-to-end
metrics: medians over the passes, and the median of several fresh-process
set-ups for ``setup_s``.  With ``--trace 1`` it makes one untraced pass and
then one traced pass, and reports the per-layer metrics of the traced pass
with the tracing overhead (traced minus untraced pass time).

Every output is checked after the timed passes: certificates are re-parsed
and re-verified from their emitted text, must be byte-identical across
passes, and every verdict and verb output must match its expected value.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations that
ended in an unexpected exception; refusals (``BoundExceededError`` or exit
code 3) are documented outcomes and count against ``ok_share`` only.  A wrong
output makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("base4", "verify_ok", "verify_reject", "free")
E2E = {  # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "max_case_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "cert_bytes": "bytes",
}
# fresh-process set-ups per run, half before and half after the timed passes,
# so that the median spans more than one stretch of host load
SETUP_SAMPLES = 8
WORKDIR = Path(".bench_build") / "perfbench"


@dataclass
class Pass:
    seconds: float
    case_seconds: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    cert_bytes: int = 0
    refused: int = 0
    errors: int = 0


REFUSED, ERROR = "<refused>", "<error>"


def run_pass(ops, refusals, recorder=None) -> Pass:
    """One closed-loop pass over the operations, timing each."""
    result = Pass(0.0)
    perf = time.perf_counter
    start = perf()
    for op in ops:
        if recorder is not None:
            recorder.case = op.case
        t0 = perf()
        try:
            out, nbytes = op.run()
        except refusals:
            out, nbytes = REFUSED, 0
            result.refused += 1
        except Exception:  # keep going; the op counts as failed
            traceback.print_exc(file=sys.stderr)
            out, nbytes = ERROR, 0
            result.errors += 1
        result.case_seconds[op.case] = perf() - t0
        result.outputs[op.case] = out
        result.cert_bytes += nbytes
    result.seconds = perf() - start
    return result


def check_outputs(ops, passes: list[Pass]) -> list[str]:
    """Problems with the outputs: a case whose output differs between
    passes, or whose output fails its check."""
    problems = []
    for op in ops:
        outs = [p.outputs[op.case] for p in passes]
        if any(o != outs[0] for o in outs[1:]):
            problems.append(f"{op.case}: output differs between passes")
        if outs[0] in (REFUSED, ERROR):
            continue
        problem = op.check(outs[0])
        if problem:
            problems.append(f"{op.case}: {problem}")
    return problems


def time_setups(workload: str, seed: int, count: int) -> list[float]:
    """Wall times of fresh interpreters that import eppa and build the
    workload's inputs."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path("src") / "eppa"
    if not (src / "__init__.py").is_file():
        print("perfbench: no eppa sources at src/eppa; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import workloads
    from eppa.errors import BoundExceededError
    refusals = (BoundExceededError, workloads.Refused)

    if args.setup_only:
        workloads.setup(args.workload, args.seed, WORKDIR, src)
        return 0

    ops = workloads.setup(args.workload, args.seed, WORKDIR, src)

    if args.trace:
        import spans
        untraced = run_pass(ops, refusals)
        with spans.Recorder() as recorder:
            traced = run_pass(ops, refusals, recorder)
        passes = [untraced, traced]
        values = recorder.metrics()
        values["trace.pass_s"] = traced.seconds
        values["trace.untraced_pass_s"] = untraced.seconds
        values["trace.overhead_s"] = traced.seconds - untraced.seconds
        metrics = {name: metric(values[name], spans.metric_unit(name))
                   for name in spans.metric_names()}
    else:
        setups = time_setups(args.workload, args.seed, SETUP_SAMPLES // 2)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ops, refusals))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += time_setups(args.workload, args.seed, SETUP_SAMPLES - len(setups))
        attempted = len(ops) * len(passes)
        not_ok = sum(p.refused + p.errors for p in passes)
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p.seconds for p in passes),
            "max_case_s": statistics.median(max(p.case_seconds.values()) for p in passes),
            "ok_share": (attempted - not_ok) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "cert_bytes": statistics.median(p.cert_bytes for p in passes),
        }
        metrics = {name: metric(values[name], unit) for name, unit in E2E.items()}

    problems = check_outputs(ops, passes)
    for problem in problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": sum(p.errors for p in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
