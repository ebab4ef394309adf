"""The traced benchmark still finds every function it traces.

``perfbench/tracing.py`` rebinds movetrait functions by name and counts
evidence iterations off ``fit_bayes_ridge``'s return value. A rename in the
program would silently break ``perfbench/run.py --trace 1``; this runs the
tracer over a small pipeline so such a rename fails here.
"""
import importlib.util
import json
import sys
from pathlib import Path

from movetrait import cli
from movetrait.synth import default_strong_spec, write_dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_every_traced_function(tmp_path):
    tracing = _load_tracing()
    takes = tmp_path / "takes"
    write_dataset(default_strong_spec(participants=6, stimuli=1, frames=60, seed=3), takes)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        **cli.PipelineConfig().to_dict(),
        "takes_dir": str(takes), "traits_csv": str(takes / "traits.csv"),
        "output_dir": str(tmp_path / "out"), "extract_kinds": ["position"],
        "eval_inputs": ["position"], "traits": ["EQ"], "n_folds": 3,
        "pcr_components": {"position": 2},
    }))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod_name, fn_name, _, _ in tracing.TRACED:
            fn = getattr(sys.modules[f"movetrait.{mod_name}"], fn_name)
            assert hasattr(fn, "__wrapped__"), f"movetrait.{mod_name}.{fn_name} not rebound"
        for stage in ("extract", "train", "evaluate"):
            assert cli.main([stage, "-c", str(config)]) == 0, stage
    finally:
        tracer.restore()
    summary = tracing.summarize(tracer.spans)
    assert summary["counts"]["regression.bayes_iterations"] > 0
    assert summary["spans"]["regression.fit_bayes_ridge"]["calls"] > 0
    assert not hasattr(cli.sha256_file, "__wrapped__")
