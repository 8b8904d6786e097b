"""Benchmark of psiq: four closed-loop workloads, one per hot layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs one operation at a time.  ``tabulate`` times in-process
library calls inside a worker process that serves one round of inputs;
``precision``, ``exact`` and ``sweep`` start one ``python -m psiq.cli``
process per operation.  A run repeats whole rounds (workloads.py) until the
operations have taken S seconds and there are enough of them for the tail
percentile.  Every output is then checked against computations made apart
from psiq (checks.py).  The last line of stdout is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

With --trace 1, rounds alternate between untraced and traced; traced CLI
operations run through worker.py, which records spans around the calls
psiq.cli makes (spans.py) in a fresh process, so caches stay cold.  The
spans go to bench/out/.  See bench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# nearest-rank percentile reported as latency_tail_s; a run keeps going until
# at least ten operations lie beyond it
TAIL_PERCENTILE = {"tabulate": 85, "precision": 75, "exact": 75, "sweep": 75}
# an operation slower than this fails; typical operations take 0.1 to 1 s
OP_TIMEOUT_S = 10.0
# a tabulate worker that has not finished its round by then is killed
ROUND_TIMEOUT_S = 60.0
# no round starts later than this into the run, so a run ends within 180 s
LAST_ROUND_START_S = 90.0
SETUP_SAMPLES = 11
# mpmath references are computed this many digits beyond the printed ones
REFERENCE_EXTRA_DIGITS = 10

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (unit, what it is taken from)
PER_LAYER = {
    "rationals.parse_s": ("s", "rationals.parse"),
    "rationals.shift_s": ("s", "rationals.shift"),
    "rationals.shift_steps": ("count", "steps"),
    "formulas.psi_closed_s": ("s", "formulas.psi_closed"),
    "formulas.murty_saradha_s": ("s", "formulas.murty_saradha"),
    "formulas.gauss_1813_s": ("s", "formulas.gauss_1813"),
    "formulas.nielsen_s": ("s", "formulas.nielsen"),
    "formulas.gr_variant_s": ("s", "formulas.gr_variant"),
    "closedform.terms": ("count", "terms"),
    "closedform.cosines": ("count", "cosines"),
    "closedform.render_s": ("s", "closedform.render"),
    "closedform.render_chars": ("count", "chars"),
    "numerics.bernoulli_s": ("s", "numerics.bernoulli"),
    "numerics.const_gamma_s": ("s", "numerics.const_gamma"),
    "numerics.coeff_eval_s": ("s", "numerics.coeff_eval"),
    "numerics.eval_s": ("s", "numerics.eval"),
    "numerics.format_s": ("s", "numerics.format"),
    "expressions.parse_s": ("s", "expressions.parse"),
    "expressions.eval_s": ("s", "expressions.eval"),
    "verification.compare_s": ("s", "verification.compare"),
    "verification.errata_s": ("s", "verification.errata"),
    "verification.tables_s": ("s", "verification.tables"),
    "verification.cases": ("count", "cases"),
    "cli.startup_s": ("s", "cli.startup"),
    "trace.overhead_s": ("s", None),
}


@dataclass
class Op:
    """One attempted operation: its input, wall time and outcome."""

    payload: object
    seconds: float = 0.0
    output: str = ""
    error: Optional[str] = None
    wrong: bool = False
    traced: bool = False
    startup: float = 0.0
    spans: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:200] if lines else ""


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median wall time of fresh processes doing the workload's set-up."""
    if workload == "tabulate":
        command = [sys.executable, str(BENCH / "worker.py"), "tabulate", str(seed), "0", "0", "1"]
    else:
        command = [sys.executable, "-c", "import psiq.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True, capture_output=True,
                       timeout=ROUND_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_cli_round(workload: str, inputs: list, traced: bool, env: dict) -> tuple[list, float]:
    ops = []
    cpu_before = _children_cpu()
    for payload in inputs:
        argv = workloads.cli_argv(workload, payload)
        if traced:
            command = [sys.executable, str(BENCH / "worker.py"), "cli", json.dumps(argv)]
        else:
            command = [sys.executable, "-m", "psiq.cli", *argv]
        op = Op(payload, traced=traced)
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
            op.error = f"exceeded {OP_TIMEOUT_S} s"
        op.seconds = time.perf_counter() - start
        if proc is not None and proc.returncode != 0:
            op.error = f"exit {proc.returncode}: {_last_line(proc.stderr)}"
        elif proc is not None and traced:
            result = json.loads(proc.stdout)
            op.output, op.spans = result["stdout"], result["spans"]
            op.startup = result["ready"] - start
            if result["code"] != 0:
                op.error = f"exit {result['code']}: {_last_line(proc.stderr)}"
        elif proc is not None:
            op.output = proc.stdout
        ops.append(op)
    return ops, _children_cpu() - cpu_before


def run_tabulate_round(seed: int, round_index: int, traced: bool, env: dict) -> tuple[list, float]:
    inputs = workloads.tabulate_round(seed, round_index)
    command = [sys.executable, str(BENCH / "worker.py"), "tabulate",
               str(seed), str(round_index), str(int(traced)), "0"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        reason = "round timed out" if proc is None else f"worker exit {proc.returncode}: {_last_line(proc.stderr)}"
        share = (time.perf_counter() - start) / len(inputs)
        return [Op(r, seconds=share, error=reason, traced=traced) for r in inputs], 0.0
    result = json.loads(proc.stdout)
    ops = []
    for r, done in zip(inputs, result["ops"]):
        op = Op(r, seconds=done["end"] - done["start"], output=done.get("text", ""),
                error=done.get("error"), traced=traced, spans=done["spans"])
        if done["arg"] != workloads.arg_text(r):
            op.error = f"worker computed {done['arg']}, expected {workloads.arg_text(r)}"
        elif op.error is None and op.seconds > OP_TIMEOUT_S:
            op.error = f"exceeded {OP_TIMEOUT_S} s"
        ops.append(op)
    return ops, result["cpu_s"]


def check_outputs(workload: str, ops: list) -> None:
    """Mark every operation whose output is wrong as failed."""
    references: dict[Fraction, object] = {}
    corpus_entries = checks.count_corpus_entries(SRC / "psiq" / "data" / "tables.txt")
    for op in ops:
        if op.error is not None:
            continue
        if workload == "tabulate":
            digits = workloads.TABULATE_DIGITS
            reference = checks.reference_digamma(op.payload, digits + REFERENCE_EXTRA_DIGITS)
            reason = checks.check_decimal(op.output, digits, reference)
        elif workload == "precision":
            r, digits = op.payload
            if r not in references:
                # one reference per argument, at 10 digits beyond the largest D
                dps = workloads.PRECISION_D[1] + REFERENCE_EXTRA_DIGITS
                references[r] = checks.reference_digamma(r, dps)
            reason = checks.check_decimal(op.output, digits, references[r])
        elif workload == "exact":
            reason = checks.check_form(op.output, op.payload)
        else:
            command, qmax, digits = op.payload
            try:
                report = json.loads(op.output)
            except json.JSONDecodeError as exc:
                reason = f"report is not JSON: {exc}"
            else:
                if command == "compare":
                    reason = checks.check_compare(report, qmax, digits)
                elif command == "errata":
                    reason = checks.check_errata(report, qmax, digits)
                else:
                    reason = checks.check_tables(report, digits, corpus_entries)
        if reason is not None:
            op.error, op.wrong = f"wrong output: {reason}", True


def end_to_end_metrics(workload: str, ops: list, cpu: float, setup: float) -> dict:
    good = sorted(op.seconds for op in ops if op.error is None)
    rank = math.ceil(TAIL_PERCENTILE[workload] / 100 * len(good))
    return {
        "setup_s": setup,
        "latency_p50_s": statistics.median(good),
        "latency_tail_s": good[rank - 1],
        "throughput_per_s": len(good) / sum(op.seconds for op in ops),
        "cpu_per_op_s": cpu / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def per_layer_metrics(ops: list) -> tuple[dict, dict]:
    """Means per traced operation, and each layer's share of traced time."""
    traced = [op for op in ops if op.traced and op.error is None]
    untraced = [op.seconds for op in ops if not op.traced and op.error is None]
    totals: dict[str, float] = {}
    own_totals: dict[str, float] = {}
    for op in traced:
        inclusive, own, counts = spans.summarize(op.spans)
        for source in (inclusive, counts):
            for key, value in source.items():
                totals[key] = totals.get(key, 0.0) + value
        for key, value in own.items():
            own_totals[key] = own_totals.get(key, 0.0) + value
        totals["cli.startup"] = totals.get("cli.startup", 0.0) + op.startup
    own_totals["cli.startup"] = totals.get("cli.startup", 0.0)
    metrics = {name: totals.get(source, 0.0) / len(traced)
               for name, (_, source) in PER_LAYER.items() if source}
    metrics["trace.overhead_s"] = (
        statistics.median(op.seconds for op in traced) - statistics.median(untraced)
    )
    traced_time = sum(op.seconds for op in traced)
    shares = {layer: value / traced_time for layer, value in own_totals.items()}
    shares["unattributed"] = 1 - sum(shares.values())
    return metrics, shares


def write_spans(workload: str, seed: int, ops: list) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    records = [
        {"op": i, "input": str(op.payload), "seconds": op.seconds,
         "startup": op.startup, "spans": op.spans}
        for i, op in enumerate(ops) if op.traced
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "ops": records}))
    return path


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psiq" / "__init__.py").is_file():
        print(f"error: psiq sources not found under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    workload, seed = args.workload, args.seed
    setup = measure_setup(workload, seed, env)
    percentile = TAIL_PERCENTILE[workload]
    min_ops = math.ceil(10 / (1 - percentile / 100))

    ops: list[Op] = []
    cpu = 0.0
    rounds = 0
    run_start = time.perf_counter()
    while True:
        enough = sum(op.seconds for op in ops) >= args.seconds and len(ops) >= min_ops
        if enough or time.perf_counter() - run_start > LAST_ROUND_START_S:
            break
        traced = bool(args.trace) and rounds % 2 == 1
        if workload == "tabulate":
            round_ops, round_cpu = run_tabulate_round(seed, rounds, traced, env)
        else:
            inputs = workloads.ROUNDS[workload](seed, rounds)
            round_ops, round_cpu = run_cli_round(workload, inputs, traced, env)
        ops += round_ops
        cpu += round_cpu
        rounds += 1

    check_outputs(workload, ops)
    failed = sum(op.error is not None for op in ops)
    wrong = sum(op.wrong for op in ops)
    print(f"workload {workload}  seed {seed}  trace {args.trace}  rounds {rounds}"
          f"  attempted {len(ops)}  failed {failed}  wrong {wrong}")
    for op in ops:
        if op.error is not None:
            print(f"  failed {op.payload}: {op.error}")
    if failed == len(ops):
        print("error: every operation failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics, shares = per_layer_metrics(ops)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        print(f"  spans written to {write_spans(workload, seed, ops).relative_to(ROOT)}")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  self-time share {layer:24} {100 * share:6.2f} %")
    else:
        metrics = end_to_end_metrics(workload, ops, cpu, setup)
        units = END_TO_END
        print(f"  latency_tail_s is p{percentile}")
    for name, value in metrics.items():
        print(f"  {name:26} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
