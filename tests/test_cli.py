import builtins
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from movetrait.cli import (
    PipelineConfig,
    apply_overrides,
    cmd_evaluate,
    cmd_extract,
    cmd_importance,
    cmd_report,
    cmd_train,
    config_hash,
    main,
)
from movetrait.features import apply_gaussian_stats, gaussian_stats, load_feature_matrix
from movetrait.regression import build_dataset, fit_bayes_ridge, load_model, load_trait_table
from movetrait.synth import default_strong_spec, write_dataset


# 10 participants so every grouped fold holds at least two of them and the
# per-stimulus validation targets keep nonzero variance
@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("takes")
    spec = default_strong_spec(participants=10, stimuli=2, frames=60, seed=11,
                               noise_std=2.0)
    write_dataset(spec, d)
    return d


def make_config(dataset_dir, out_dir, **overrides) -> PipelineConfig:
    base = dict(
        takes_dir=str(dataset_dir),
        traits_csv=str(dataset_dir / "traits.csv"),
        output_dir=str(out_dir),
        extract_kinds=("position", "velocity"),
        eval_inputs=("position", "position_n", "velocity", "velocity_n"),
        model_kinds=("pcr", "bayes_ridge"),
        traits=("EQ",),
        pcr_components={"position": 3, "velocity": 3},
        n_folds=5,
        fold_seed=0,
        grouping="participant",
    )
    base.update(overrides)
    return PipelineConfig.from_dict({**PipelineConfig().to_dict(), **base})


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = make_config(tmp_path, tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert PipelineConfig.from_json(path) == cfg

    def test_overrides(self, tmp_path):
        cfg = make_config(tmp_path, tmp_path / "out")
        cfg2 = apply_overrides(cfg, ["sigma=6.0", 'traits=["EQ","SQ"]'])
        assert cfg2.sigma == 6.0
        assert cfg2.traits == ("EQ", "SQ")

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(make_config(tmp_path, tmp_path), ["nope=1"])

    def test_config_hash_stable(self, tmp_path):
        cfg = make_config(tmp_path, tmp_path / "out")
        assert config_hash(cfg) == config_hash(make_config(tmp_path, tmp_path / "out"))

    # (field, bad value as given to --set, message); each is rejected when the
    # config is built, before any stage reads an input or makes a directory
    BAD_FIELDS = [
        ("grouping", "participants", "grouping must be 'none' or 'participant'"),
        ("grouping", '""', "grouping must be 'none' or 'participant'"),
        ("sigma", "-1", "sigma must be a finite number > 0"),
        ("sigma", "0", "sigma must be a finite number > 0"),
        ("sigma", "NaN", "sigma must be a finite number > 0"),
        ("sigma", "Infinity", "sigma must be a finite number > 0"),
        ("sigma", "wide", "sigma must be a finite number > 0"),
        ("sigma", "true", "sigma must be a finite number > 0"),
        ("workers", "0", "workers must be a positive integer"),
        ("workers", "-2", "workers must be a positive integer"),
        ("workers", '"2"', "workers must be a positive integer"),
        ("workers", "true", "workers must be a positive integer"),
        ("extract_kinds", '["pos"]', "extract_kinds entries must be 'position' or 'velocity'"),
    ]

    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    @pytest.mark.parametrize("field,value,message", BAD_FIELDS)
    def test_bad_field_rejected_at_config_time(
            self, dataset_dir, tmp_path, capsys, command, field, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(dataset_dir, None).to_dict()))
        out = tmp_path / "out"
        rc = main([command, "-c", str(cfg_path), "--output-dir", str(out),
                   "--set", f"{field}={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "tsv" not in err
        assert not out.exists()


class TestExtract:
    def test_rows_and_width(self, dataset_dir, tmp_path):
        cfg = make_config(dataset_dir, tmp_path)
        info = cmd_extract(cfg)
        assert info["takes"] == 20
        matrix = load_feature_matrix(info["features"]["position"])
        assert matrix.values.shape == (20, 1770)
        assert matrix.rows[0].participant_id == "P000"

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        cfg = make_config(dataset_dir, tmp_path)
        first = cmd_extract(cfg)
        blob1 = first["features"]["position"].read_bytes()
        second = cmd_extract(cfg)
        assert second["features"]["position"].read_bytes() == blob1

    def test_workers_do_not_change_output(self, dataset_dir, tmp_path):
        cfg1 = make_config(dataset_dir, tmp_path / "w1", workers=1)
        cfg2 = make_config(dataset_dir, tmp_path / "w4", workers=4)
        p1 = cmd_extract(cfg1)["features"]["position"]
        p2 = cmd_extract(cfg2)["features"]["position"]
        assert p1.read_bytes() == p2.read_bytes()

    def test_each_take_read_once(self, dataset_dir, tmp_path, monkeypatch):
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if str(file).endswith(".tsv"):
                opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)  # Path.open goes through io.open
        monkeypatch.setattr(builtins, "open", counting_open)
        cfg = make_config(dataset_dir, tmp_path)
        cmd_extract(cfg)
        takes = sorted(p.name for p in dataset_dir.glob("*.tsv"))
        assert sorted(opened) == takes
        manifest = json.loads((cfg.resolved_features_dir() / "manifest.json").read_text())
        for name in takes:
            digest = hashlib.sha256((dataset_dir / name).read_bytes()).hexdigest()
            assert manifest["inputs"][name]["sha256"] == digest

    def test_manifest_and_config_written(self, dataset_dir, tmp_path):
        cfg = make_config(dataset_dir, tmp_path)
        cmd_extract(cfg)
        out = cfg.resolved_features_dir()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_hash(cfg)
        assert len(manifest["inputs"]) == 40  # 20 takes + 20 sidecars
        assert (out / "config.json").exists()

    def test_velocity_on_short_take_fails(self, tmp_path):
        spec = default_strong_spec(participants=1, stimuli=1, frames=5, seed=1)
        takes = tmp_path / "short"
        write_dataset(spec, takes)
        cfg = make_config(takes, tmp_path / "out")
        with pytest.raises(ValueError, match=r"P000_S00\.tsv: .*7 frames"):
            cmd_extract(cfg)

    def test_joint_derivation_failure_names_take(self, dataset_dir, tmp_path):
        takes = tmp_path / "twenty"
        takes.mkdir()
        for src in sorted(dataset_dir.glob("P000_S0*")):
            (takes / src.name).write_bytes(src.read_bytes())
        bad = takes / "P000_S01.tsv"
        header, *rows = bad.read_text().splitlines()
        labels = header.split("\t")[1:21]
        bad.write_text("\n".join(
            ["\t".join(["#MARKERS", *labels])]
            + ["\t".join(r.split("\t")[:60]) for r in rows]
        ) + "\n")
        cfg = make_config(takes, tmp_path / "out")
        with pytest.raises(ValueError, match=r"P000_S01\.tsv: take has 20 markers"):
            cmd_extract(cfg)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_bad_workers_rejected_before_any_take_is_read(
            self, dataset_dir, tmp_path, monkeypatch, workers):
        import movetrait.cli as cli

        read = []
        monkeypatch.setattr(cli, "load_take", lambda path, **kw: read.append(path))
        with pytest.raises(ValueError, match="workers"):
            cmd_extract(make_config(dataset_dir, tmp_path, workers=workers))
        assert read == []
        assert not list(tmp_path.rglob("features_*"))

    def test_missing_dir_fails(self, tmp_path):
        cfg = make_config(tmp_path / "nope", tmp_path / "out")
        with pytest.raises(ValueError, match="not a directory"):
            cmd_extract(cfg)


@pytest.fixture(scope="module")
def extracted(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = make_config(dataset_dir, out, traits=("O", "C", "E", "A", "N", "EQ", "SQ"))
    cmd_extract(cfg)
    return cfg


class TestTrain:
    def test_one_model_file_per_trait(self, extracted, capsys):
        results = cmd_train(extracted)
        assert len(results) == 7
        for trait, info in results.items():
            assert info["path"].exists()
            assert info["train_r2"] >= 0.99  # planted coupling, n << d
        logged = capsys.readouterr().out
        assert "event=train" in logged and "train_r2=" in logged

    def test_provenance_embedded(self, extracted):
        cmd_train(extracted)
        doc = json.loads(
            (extracted.resolved_output_dir() / "train" / "model_EQ.json").read_text()
        )
        assert doc["provenance"]["config_sha256"] == config_hash(extracted)
        assert doc["kind"] == "bayes_ridge"

    def test_pcr_k_out_of_range_errors_before_fit(self, extracted):
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "train_model": "pcr",
            "pcr_components": {"position": 50, "velocity": 3},
        })
        with pytest.raises(ValueError, match="exceeds rows-1"):
            cmd_train(cfg)

    @pytest.mark.parametrize("model", ["bayes_ridge", "pcr"])
    def test_one_svd_for_all_traits(self, extracted, tmp_path, monkeypatch, model):
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "train_model": model, "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert len(cmd_train(cfg)) == 7
        assert len(calls) == 1

    def test_normalized_input_matches_cv_normalization(self, extracted, tmp_path):
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "train_input": "position_n",
            "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        cmd_train(cfg)
        table = load_trait_table(cfg.traits_csv)
        matrix = load_feature_matrix(cfg.resolved_features_dir() / "features_position.csv")
        dataset = build_dataset(matrix, table, cfg.traits, cfg.dataset_mode)
        X = apply_gaussian_stats(dataset.X, *gaussian_stats(dataset.X))
        for trait, y in zip(cfg.traits, dataset.y.T):
            expected = fit_bayes_ridge(X, y, tol=cfg.bayes_tol, max_iter=cfg.bayes_max_iter)
            model = load_model(tmp_path / "train" / f"model_{trait}.json")
            np.testing.assert_array_equal(model.weights, expected.weights)
        assert sorted(p.name for p in (tmp_path / "train").iterdir()) == sorted(
            [f"model_{t}.json" for t in cfg.traits] + ["config.json", "manifest.json"]
        )

    def test_bayes_diagnostics_logged(self, extracted, tmp_path, capsys):
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        cmd_train(cfg)
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("event=train ")]
        assert len(lines) == 7
        for line in lines:
            keys = {part.split("=", 1)[0] for part in line.split()}
            assert {"converged", "iterations", "alpha", "lambda", "gamma"} <= keys
        doc = json.loads((tmp_path / "train" / "model_EQ.json").read_text())
        assert "gamma" not in doc


class TestEvaluate:
    def test_eq_table_shape(self, extracted, capsys):
        cfg = PipelineConfig.from_dict({**extracted.to_dict(), "traits": ["EQ"]})
        table = cmd_evaluate(cfg)
        assert len(table.rows) == 8  # 4 input kinds x 2 models
        logged = capsys.readouterr().out
        assert "event=leakage_audit" in logged
        assert "shared_participants=0" in logged
        out = extracted.resolved_output_dir() / "evaluate"
        assert (out / "scores.csv").exists()
        assert (out / "scores.txt").exists()
        assert (out / "scores.json").exists()

    def test_seed_changes_fold_assignment(self, extracted):
        cfg1 = PipelineConfig.from_dict(
            {**extracted.to_dict(), "traits": ["EQ"], "eval_inputs": ["position"]}
        )
        cfg2 = PipelineConfig.from_dict({**cfg1.to_dict(), "fold_seed": 99})
        t1 = cmd_evaluate(cfg1)
        t2 = cmd_evaluate(cfg2)
        r1 = t1.lookup("position", "bayes_ridge", "EQ")
        r2 = t2.lookup("position", "bayes_ridge", "EQ")
        assert r1.fold_rmse != r2.fold_rmse

    def test_bayes_diagnostics_logged_not_scored(self, extracted, tmp_path, capsys):
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ", "SQ"], "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        cmd_evaluate(cfg)
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("event=evaluate ")]
        assert len(lines) == 4 * 2 * 2
        for line in lines:
            has = "converged_folds=" in line and "max_iterations=" in line
            assert has == ("model=bayes_ridge" in line)
        for name in ("scores.csv", "scores.json", "scores.txt"):
            text = (tmp_path / "evaluate" / name).read_text()
            assert "converged" not in text and "iterations" not in text

    def test_each_feature_file_loaded_once(self, extracted, tmp_path, monkeypatch):
        import movetrait.cli as cli

        loaded = []
        load = cli.load_feature_matrix
        monkeypatch.setattr(cli, "load_feature_matrix",
                            lambda path: loaded.append(path.name) or load(path))
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ"], "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        cmd_evaluate(cfg)
        assert sorted(loaded) == ["features_position.csv", "features_velocity.csv"]

    def test_pcr_k_checked_against_training_fold_before_fit(
            self, extracted, tmp_path, capsys):
        # 10 participants in 5 grouped folds: every training fold has 16 rows,
        # so k = 18 passes a check against all 20 rows but cannot be fitted
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
            "pcr_components": {"position": 18}, "model_kinds": ["bayes_ridge", "pcr"],
        })
        with pytest.raises(ValueError) as err:
            cmd_evaluate(cfg)
        for part in ("pcr_components", "position", "smallest training fold (16 rows)"):
            assert part in str(err.value)
        assert "event=evaluate " not in capsys.readouterr().out
        assert not list(tmp_path.glob("evaluate/scores.*"))

    def test_reference_rendered_in_text(self, extracted):
        cfg = PipelineConfig.from_dict({**extracted.to_dict(), "traits": ["EQ"]})
        cmd_evaluate(cfg)
        text = (extracted.resolved_output_dir() / "evaluate" / "scores.txt").read_text()
        assert "(ref 2.722)" in text and "(ref 0.771)" in text


class TestImportanceAndReport:
    def test_importance_outputs(self, extracted):
        cmd_train(extracted)
        written = cmd_importance(extracted)
        out = extracted.resolved_output_dir() / "importance"
        assert (out / "importance_EQ.csv").exists()
        assert (out / "radar_EQ_SQ.svg").exists()
        assert (out / "importance_personality_summary.csv").exists()
        assert (out / "manifest.json").exists()

    def test_report_contains_spearman_and_reference(self, extracted):
        cfg = PipelineConfig.from_dict({**extracted.to_dict(), "traits": ["EQ"]})
        cmd_evaluate(cfg)
        report = cmd_report(extracted)
        text = report.read_text()
        assert "Spearman correlation" in text
        assert "(ref" in text  # at least one reference annotation
        csv_path = extracted.resolved_output_dir() / "report" / "trait_spearman.csv"
        assert csv_path.exists()


class TestMainEntry:
    def test_synth_subcommand(self, tmp_path):
        spec = default_strong_spec(participants=2, stimuli=1, frames=30, seed=2)
        spec_path = tmp_path / "spec.json"
        spec.to_json(spec_path)
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")])
        assert rc == 0
        assert len(list((tmp_path / "data").glob("*.tsv"))) == 2

    def test_extract_via_main(self, dataset_dir, tmp_path):
        cfg = make_config(dataset_dir, tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = main(["extract", "-c", str(cfg_path)])
        assert rc == 0
        assert (tmp_path / "out" / "extract" / "features_position.csv").exists()

    def test_error_gives_nonzero_exit(self, tmp_path, capsys):
        cfg = make_config(tmp_path / "missing", tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = main(["extract", "-c", str(cfg_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_output_dir_flag_overrides(self, dataset_dir, tmp_path):
        cfg = make_config(dataset_dir, tmp_path / "ignored")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = main([
            "extract", "-c", str(cfg_path), "--output-dir", str(tmp_path / "flagged"),
        ])
        assert rc == 0
        assert (tmp_path / "flagged" / "extract" / "features_position.csv").exists()

    def test_env_var_sets_default_output_root(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MOVETRAIT_OUT", str(tmp_path / "envroot"))
        cfg = make_config(dataset_dir, None, output_dir=None)
        assert cfg.resolved_output_dir() == tmp_path / "envroot"
        cmd_extract(cfg)
        assert (tmp_path / "envroot" / "extract" / "features_position.csv").exists()
