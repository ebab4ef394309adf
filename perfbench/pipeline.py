"""One pass of the pipeline in a fresh interpreter.

Usage: python3 perfbench/pipeline.py CONFIG_JSON RESULT_JSON TRACE(0|1) STAGE...

Runs the given stages in order, each through ``movetrait.cli.main`` as the
command line would run it, and times each with a wall clock. A stage may
appear more than once. The result file holds every execution's stage,
seconds, exit code and log, the wall time of the leading full pipeline
(extract to report), and with TRACE=1 the recorded spans. A fresh process
per pass gives each pass its own peak resident memory, which the parent
reads when the process ends.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STAGES = ("extract", "train", "evaluate", "importance", "report")


def import_program():
    """Import movetrait from the checkout's src, never from anywhere else."""
    if not (SRC / "movetrait" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import movetrait
    if Path(movetrait.__file__).resolve().parent != SRC / "movetrait":
        raise SystemExit(f"perfbench: movetrait imported from {movetrait.__file__}")
    return movetrait


def run_pass(config: Path, trace: bool, stages: list[str]) -> dict:
    if tuple(stages[:len(STAGES)]) != STAGES:
        raise SystemExit(f"perfbench: a pass starts with {STAGES}, not {stages}")
    import_program()
    from movetrait import cli
    from tracing import Tracer

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    def call(stage: str) -> int:
        # an exception escaping main would end the command with status 1
        try:
            return cli.main([stage, "-c", str(config)])
        except Exception:
            traceback.print_exc()
            return 1

    executions = []
    start = time.perf_counter()
    for i, stage in enumerate(stages):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if tracer:
                with tracer.span(f"cli.{stage}"):
                    code = call(stage)
            else:
                code = call(stage)
        executions.append({"stage": stage, "seconds": time.perf_counter() - t0,
                           "exit": code, "log": buf.getvalue()})
        if i == len(STAGES) - 1:
            pipeline_s = time.perf_counter() - start
    doc = {"pipeline_s": pipeline_s, "executions": executions}
    if tracer:
        tracer.restore()
        doc["spans"] = tracer.spans
    return doc


def main(argv: list[str]) -> int:
    config, out, trace, *stages = argv
    Path(out).write_text(json.dumps(run_pass(Path(config), trace == "1", stages)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
