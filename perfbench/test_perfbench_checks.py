"""The benchmark's correctness checks pass on real outputs and fail on corrupted ones.

Run with ``python3 -m pytest perfbench``. A tiny dataset goes through the
CLI's extract, train and importance stages; each test then corrupts one
output and expects the matching check to raise.
"""
import json
import math
import shutil
from pathlib import Path

import pytest

from pipeline import import_program

import_program()

import checks  # noqa: E402
import run  # noqa: E402
from movetrait import cli  # noqa: E402
from movetrait.synth import default_strong_spec, write_dataset  # noqa: E402

TRAITS = ["O", "EQ"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    data, out = root / "data", root / "out"
    write_dataset(default_strong_spec(participants=3, stimuli=2, frames=40, seed=5), data)
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "takes_dir": str(data), "traits_csv": str(data / "traits.csv"),
        "output_dir": str(out), "extract_kinds": ["position"], "traits": TRAITS,
    }))
    for stage in ("extract", "train", "importance"):
        assert cli.main([stage, "-c", str(cfg)]) == 0
    return data, out


@pytest.fixture
def copy(outputs, tmp_path):
    data, out = outputs
    shutil.copytree(out, tmp_path / "out")
    return data, tmp_path / "out"


def _features(out: Path) -> Path:
    return out / "extract" / "features_position.csv"


def _rewrite_cell(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checks_pass_on_pipeline_outputs(outputs):
    data, out = outputs
    checks.check_feature_matrix(_features(out), 6)
    checks.check_position_features(_features(out), data, [0, 3, 5])
    checks.check_importance(out / "train", out / "importance", TRAITS)


def test_feature_cell_out_of_range_fails(copy):
    _, out = copy
    _rewrite_cell(_features(out), 2, 100, lambda v: "1.5")
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_feature_matrix(_features(out), 6)


def test_feature_cell_off_by_a_little_fails(copy):
    data, out = copy
    _rewrite_cell(_features(out), 3, 7, lambda v: repr(float(v) * (1 - 1e-9)))
    checks.check_feature_matrix(_features(out), 6)  # still in range
    with pytest.raises(checks.CheckError, match="recomputed kernel"):
        checks.check_position_features(_features(out), data, [3])


def test_missing_feature_row_fails(copy):
    _, out = copy
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_feature_matrix(_features(out), 7)


def test_wrong_importance_value_fails(copy):
    _, out = copy
    path = out / "importance" / "importance_EQ.csv"
    header, values = path.read_text().splitlines()
    cells = values.split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    path.write_text(header + "\n" + ",".join(cells) + "\n")
    with pytest.raises(checks.CheckError, match="brute-force"):
        checks.check_importance(out / "train", out / "importance", TRAITS)


def _scores(path: Path, r2_o: str) -> Path:
    path.write_text(
        "input,model,trait,mean_rmse,mean_r2,rmse_fold1,r2_fold1\n"
        f"position,bayes_ridge,O,0.5,{r2_o},0.5,0.9\n"
        "position,bayes_ridge,EQ,4.0,0.8,4.0,0.8\n"
    )
    return path


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_score_fails(tmp_path, bad):
    checks.check_scores(_scores(tmp_path / "ok.csv", "0.9"), 2)
    with pytest.raises(checks.CheckError, match="mean_r2"):
        checks.check_scores(_scores(tmp_path / "bad.csv", bad), 2)


def test_missing_score_cell_fails(tmp_path):
    with pytest.raises(checks.CheckError, match="cells"):
        checks.check_scores(_scores(tmp_path / "s.csv", "0.9"), 3)


def test_headline_r2_and_floor(tmp_path):
    assert checks.headline_r2(_scores(tmp_path / "s.csv", "0.75")) == 0.75
    checks.check_r2_floor(0.75)
    for low in (0.69, math.nan):
        with pytest.raises(checks.CheckError):
            checks.check_r2_floor(low)


def test_leakage_audit():
    ok = ("event=leakage_audit input=position grouping=participant shared_participants=0\n"
          "event=evaluate input=position model=pcr trait=O mean_rmse=1 mean_r2=0.9\n")
    checks.check_leakage(ok, ["position"])
    with pytest.raises(checks.CheckError, match="shared"):
        checks.check_leakage(ok.replace("=0", "=2"), ["position"])
    with pytest.raises(checks.CheckError, match="covered"):
        checks.check_leakage(ok, ["position", "velocity"])


def test_digest_covers_models(copy, outputs):
    _, out = copy
    before = checks.output_digest(out)
    assert before == checks.output_digest(outputs[1])
    path = out / "train" / "model_O.json"
    path.write_text(path.read_text().replace('"kind"', '"kind" ', 1))
    assert checks.output_digest(out) != before


def test_benchmark_json_names_every_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END.items())
    assert sorted(m["name"] for m in doc["per_layer"]) == sorted(
        list(run.PER_LAYER) + ["trace.overhead_s"])
    units = {name: unit for name, (unit, *_) in run.PER_LAYER.items()}
    for m in doc["per_layer"]:
        assert m["unit"] == units.get(m["name"], "s")
