"""Child process of the benchmark.

    worker.py tabulate SEED ROUND TRACE SETUP_ONLY
        Import psiq, rebuild round ROUND of the tabulate inputs, run one
        warm-up operation (gamma and pi at 50 digits), then, unless
        SETUP_ONLY is 1, time every operation of the round in this process.
    worker.py cli ARGV_JSON
        Run one psiq command line through psiq.cli.run with spans recorded
        around the public calls psiq.cli makes.

Writes one JSON object to stdout.  Run by bench/run.py with src/ on
PYTHONPATH.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import spans
import workloads


def run_cli(argv: list, ready: float) -> dict:
    cli = importlib.import_module("psiq.cli")
    recorder = spans.Recorder()
    recorder.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.run(argv)
    return {"ready": ready, "code": code, "stdout": captured.getvalue(), "spans": recorder.spans}


def run_tabulate(seed: int, round_index: int, trace: bool, setup_only: bool) -> dict:
    psiq = importlib.import_module("psiq")
    digits = workloads.TABULATE_DIGITS
    arguments = workloads.tabulate_round(seed, round_index)
    ctx = psiq.EvalContext(digits)
    psiq.format_decimal(psiq.eval_closed_form(psiq.psi_closed(Fraction(1, 3)), ctx), digits)
    if setup_only:
        return {}
    recorder = spans.Recorder()
    if trace:
        recorder.install()
    ops = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for r in arguments:
        op = {"arg": workloads.arg_text(r), "start": time.perf_counter()}
        try:
            value = psiq.eval_closed_form(psiq.psi_closed(r), ctx)
            op["text"] = psiq.format_decimal(value, digits)
        except Exception as exc:  # an operation that raises is a failed operation
            op["error"] = repr(exc)
        op["end"] = time.perf_counter()
        op["spans"] = recorder.take()
        ops.append(op)
    after = resource.getrusage(resource.RUSAGE_SELF)
    recorder.restore()
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return {"ops": ops, "cpu_s": cpu}


def main() -> None:
    # the import of psiq is part of the start-up that `ready` closes
    importlib.import_module("psiq.cli" if sys.argv[1] == "cli" else "psiq")
    ready = time.perf_counter()
    if sys.argv[1] == "cli":
        result = run_cli(json.loads(sys.argv[2]), ready)
    else:
        seed, round_index, trace, setup_only = (int(a) for a in sys.argv[2:6])
        result = run_tabulate(seed, round_index, bool(trace), bool(setup_only))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
