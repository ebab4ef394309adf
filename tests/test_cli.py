import builtins
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from movetrait import cli
from movetrait.cli import (
    PipelineConfig,
    apply_overrides,
    blas_thread_calls,
    cmd_evaluate,
    cmd_extract,
    cmd_importance,
    cmd_report,
    cmd_train,
    config_hash,
    main,
)
from movetrait.features import (
    apply_gaussian_stats,
    gaussian_stats,
    load_feature_matrix,
    load_feature_rows,
    rows_path,
)
from movetrait.mocap import (
    MARKER_LABELS,
    check_take_header,
    load_take,
    read_exact_csv,
    scan_table,
)
from movetrait.regression import (
    build_dataset,
    centered_svd,
    fit_bayes_ridge,
    load_model,
    load_trait_table,
)
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


# watched path -> the modes it was opened with while watched
_WATCHED_OPENS: dict[str, list] = {}


def _record_open(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        modes = _WATCHED_OPENS.get(os.fspath(args[0]))
        if modes is not None:
            modes.append(args[1])


@contextlib.contextmanager
def _opens_of(path):
    """A list that gains one entry per open of ``path`` inside the block.

    Counted from the interpreter's "open" audit event, which every open
    raises: numpy keeps its own reference to ``open``, so patching
    ``builtins.open`` would miss ``np.loadtxt`` reading a path. An audit
    hook cannot be removed, so one is installed for the session and records
    only the paths being watched.
    """
    if not getattr(_record_open, "installed", False):
        sys.addaudithook(_record_open)
        _record_open.installed = True
    key = os.fspath(path)
    _WATCHED_OPENS[key] = []
    try:
        yield _WATCHED_OPENS[key]
    finally:
        del _WATCHED_OPENS[key]


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

    # (file body, message after the path): a config file that is not a JSON
    # object fails naming the file, with no traceback
    BAD_FILES = [
        ("[1, 2]", "config file holds a list, not a JSON object"),
        ("{oops", "Expecting property name enclosed in double quotes"),
    ]

    @pytest.mark.parametrize("body,message", BAD_FILES)
    def test_bad_config_file_named(self, tmp_path, capsys, body, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(body)
        assert main(["train", "-c", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {message}")

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
        ("bayes_tol", "-1", "bayes_tol must be a finite number > 0"),
        ("bayes_tol", "0", "bayes_tol must be a finite number > 0"),
        ("bayes_tol", "NaN", "bayes_tol must be a finite number > 0"),
        ("bayes_tol", "tight", "bayes_tol must be a finite number > 0"),
        ("bayes_max_iter", "0", "bayes_max_iter must be a positive integer"),
        ("bayes_max_iter", "2.5", "bayes_max_iter must be a positive integer"),
        ("bayes_max_iter", "true", "bayes_max_iter must be a positive integer"),
        ("n_folds", "1", "n_folds must be an integer >= 2"),
        ("n_folds", '"5"', "n_folds must be an integer >= 2"),
        ("fold_seed", "-1", "fold_seed must be an integer >= 0"),
        ("fold_seed", "0.5", "fold_seed must be an integer >= 0"),
        ("dataset_mode", "mean", "dataset_mode must be one of ('per_stimulus', 'participant_mean')"),
        ("train_input", "position_z", "train_input must be one of ('position', 'position_n'"),
        ("train_model", "ridge", "train_model must be one of ('pcr', 'bayes_ridge')"),
        ("eval_inputs", '["velocity", "speed"]', "eval_inputs entries must be in ('position'"),
        ("model_kinds", '["pcr", "svm"]', "model_kinds entries must be in ('pcr', 'bayes_ridge')"),
        ("pcr_components", '{"position": 0}',
         "pcr_components must map 'position' or 'velocity' to a positive integer"),
        ("pcr_components", '{"position": 3.5}',
         "pcr_components must map 'position' or 'velocity' to a positive integer"),
        ("pcr_components", '{"position_n": 3}',
         "pcr_components must map 'position' or 'velocity' to a positive integer"),
        ("pcr_components", "[3]",
         "pcr_components must map 'position' or 'velocity' to a positive integer"),
        ("extract_kinds", "3", "extract_kinds entries must be 'position' or 'velocity'"),
        ("eval_inputs", "position", "eval_inputs entries must be in ('position'"),
        ("traits", "EQ", "traits must be a list of names"),
        ("traits", "[1]", "traits must be a list of names"),
        ("traits", '["EQ", "EQ"]', "traits must list each entry once, got ('EQ', 'EQ')"),
        ("eval_inputs", '["position", "velocity", "position"]',
         "eval_inputs must list each entry once"),
        ("model_kinds", '["pcr", "pcr"]', "model_kinds must list each entry once"),
        ("extract_kinds", '["velocity", "velocity"]', "extract_kinds must list each entry once"),
        ("extract_kinds", "[]", "extract_kinds must list at least one entry, got ()"),
        ("eval_inputs", "[]", "eval_inputs must list at least one entry, got ()"),
        ("model_kinds", "[]", "model_kinds must list at least one entry, got ()"),
        ("traits", "[]", "traits must list at least one entry, got ()"),
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

    @pytest.mark.parametrize("via", ["file", "set"])
    def test_removed_pooled_metrics_field_rejected(self, dataset_dir, tmp_path, capsys, via):
        doc = make_config(dataset_dir, None).to_dict()
        if via == "file":
            doc["pooled_metrics"] = True
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["evaluate", "-c", str(cfg_path), "--output-dir", str(out),
                   *(["--set", "pooled_metrics=true"] if via == "set" else [])])
        assert rc == 1
        assert "error: unknown config field 'pooled_metrics'" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_example_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Example `config.json`:", 1)[1].split("```json\n", 1)[1]
        doc = json.loads(block.split("```", 1)[0])
        assert PipelineConfig.from_dict(doc).to_dict() == {**PipelineConfig().to_dict(), **doc}

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_unknown_trait_rejected_before_features_load(
            self, dataset_dir, tmp_path, capsys, monkeypatch, command):
        def no_features(*args, **kwargs):
            raise AssertionError("features loaded before the traits were checked")

        monkeypatch.setattr("movetrait.cli.load_feature_matrix", no_features)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(dataset_dir, None).to_dict()))
        rc = main([command, "-c", str(cfg_path), "--output-dir", str(tmp_path / "out"),
                   "--set", 'traits=["EQ", "Q"]'])
        assert rc == 1
        assert "traits ['Q'] have no column in" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_participants_without_a_trait_value_named(self, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "traits.csv").read_text().splitlines()
        header = lines[0].split(",")
        eq = header.index("EQ")
        for i in (2, 5):  # blank the EQ cell of the second and fifth participants
            cells = lines[i].split(",")
            cells[eq] = ""
            lines[i] = ",".join(cells)
        traits = tmp_path / "traits.csv"
        traits.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(dataset_dir, None).to_dict()))
        rc = main(["train", "-c", str(cfg_path), "--output-dir", str(tmp_path / "out"),
                   "--set", f"traits_csv={traits}"])
        assert rc == 1
        lacking = [lines[i].split(",")[0] for i in (2, 5)]
        assert f"{traits}: participants {lacking} have no 'EQ' value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_trait_table_not_utf8_named(self, dataset_dir, tmp_path, capsys):
        traits = tmp_path / "traits.csv"
        traits.write_bytes((dataset_dir / "traits.csv").read_bytes().replace(b"P003", b"P\xe9"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(dataset_dir, None).to_dict()))
        rc = main(["train", "-c", str(cfg_path), "--output-dir", str(tmp_path / "out"),
                   "--set", f"traits_csv={traits}"])
        assert rc == 1
        assert f"error: {traits}: trait table is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_participant_named(self, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "traits.csv").read_text().splitlines()
        traits = tmp_path / "traits.csv"
        traits.write_text("\n".join(lines + [lines[1]]) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(dataset_dir, None).to_dict()))
        rc = main(["train", "-c", str(cfg_path), "--output-dir", str(tmp_path / "out"),
                   "--set", f"traits_csv={traits}"])
        assert rc == 1
        pid = lines[1].split(",")[0]
        assert (f"error: {traits}:{len(lines) + 1}: participant {pid!r} is already on line 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestExtract:
    def test_rows_and_width(self, dataset_dir, tmp_path):
        cfg = make_config(dataset_dir, tmp_path)
        info = cmd_extract(cfg)
        assert info["takes"] == 20
        path = info["features"]["position"]
        assert load_feature_matrix(path).shape == (20, 1770)
        assert load_feature_rows(path)[0][0] == "P000"

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        cfg = make_config(dataset_dir, tmp_path)
        first = cmd_extract(cfg)
        blob1 = first["features"]["position"].read_bytes()
        second = cmd_extract(cfg)
        assert second["features"]["position"].read_bytes() == blob1

    def test_workers_do_not_change_output(self, dataset_dir, tmp_path):
        cfg1 = make_config(dataset_dir, tmp_path / "w1", workers=1)
        cfg2 = make_config(dataset_dir, tmp_path / "w4", workers=4)
        written1 = cmd_extract(cfg1)["features"]
        written2 = cmd_extract(cfg2)["features"]
        assert sorted(written1) == sorted(written2) == ["position", "velocity"]
        for kind, path in written1.items():
            assert path.read_bytes() == written2[kind].read_bytes(), kind

    def test_take_arrays_dropped_once_used(self, dataset_dir, tmp_path, monkeypatch):
        """The take is gone when velocity runs, and the joints are gone when
        the velocity kernel runs: a worker never holds all three."""
        made, gone = {}, []   # weak references to what each layer returned last

        def dropped(name):
            return made[name]() is None

        def spy(name):
            real = getattr(cli, name)

            def call(*args, **kwargs):
                if name == "velocity":
                    gone.append(("take at velocity", dropped("load_take")))
                elif name == "extract_features" and "velocity" in made:
                    gone.append(("joints at velocity kernel", dropped("derive_joints")))
                got = real(*args, **kwargs)
                made[name] = weakref.ref(got)
                return got
            monkeypatch.setattr(cli, name, call)

        for name in ("load_take", "derive_joints", "velocity", "extract_features"):
            spy(name)
        path = dataset_dir / "P000_S00.tsv"
        side = json.loads(path.with_suffix(".json").read_text())
        out, _ = cli._featurize_take(path, side, make_config(dataset_dir, tmp_path))
        assert sorted(out) == ["position", "velocity"]
        assert gone == [("take at velocity", True), ("joints at velocity kernel", True)]

    def test_each_take_read_once(self, dataset_dir, tmp_path, monkeypatch):
        """Each take is read once in full, apart from the bounded read of its
        head that checks its header first."""
        opened, peeked = [], []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if Path(file).parent == dataset_dir and str(file).endswith((".tsv", ".json")):
                opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        def counting_peek(path):
            peeked.append(path.name)
            return check_take_header(path)

        monkeypatch.setattr(io, "open", counting_open)  # Path.open goes through io.open
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(cli, "check_take_header", counting_peek)
        cfg = make_config(dataset_dir, tmp_path)
        cmd_extract(cfg)
        monkeypatch.undo()
        takes = sorted(p.name for p in dataset_dir.glob("P*_S*.tsv"))
        sidecars = sorted(p.name for p in dataset_dir.glob("P*_S*.json"))
        assert len(sidecars) == len(takes) == 20
        assert sorted(peeked) == takes
        assert sorted(opened) == sorted(takes + peeked + sidecars)
        manifest = json.loads((cfg.resolved_features_dir() / "manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(takes + sidecars)
        for name in takes + sidecars:
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

    def test_short_marker_header_names_take(self, dataset_dir, tmp_path):
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
        with pytest.raises(ValueError, match=r"P000_S01\.tsv:1: marker 21 is no label, "
                                             r"expected 'R_toe'"):
            cmd_extract(cfg)

    @pytest.mark.parametrize("sep", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_permuted_marker_header_rejected(self, dataset_dir, tmp_path, capsys, sep):
        takes = tmp_path / "takes"
        takes.mkdir()
        for src in sorted(dataset_dir.glob("P00[0-2]_S0*")):
            (takes / src.name).write_bytes(src.read_bytes())
        bad = takes / "P001_S00.tsv"
        header, *rows = bad.read_text().splitlines()
        labels = header.split("\t")[1:]
        assert tuple(labels) == MARKER_LABELS
        rows[1] = "abc" + rows[1]   # line 3: unparseable, were the body read
        bad.write_bytes(sep.join(["\t".join(["#MARKERS", *labels[::-1]]), *rows, ""]).encode())
        out = tmp_path / "out"
        rc = main(["extract", "--set", f"takes_dir={takes}", "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}:1: marker 1 is 'R_toe', expected 'LF_head'" in err
        assert not list(out.rglob("features_*.csv"))

    # (line end, header labels from the standard ones, the fault named); a
    # header longer than any good one is read past the bounded peek
    LAST_TAKE_HEADERS = [
        ("\n", lambda labels: [labels[1], labels[0], *labels[2:]],
         "marker 1 is 'RF_head', expected 'LF_head'"),
        ("\r", lambda labels: labels[:20], "marker 21 is no label, expected 'R_toe'"),
        ("\r\n", lambda labels: ["x" * 300, *labels[1:]],
         f"marker 1 is '{'x' * 300}', expected 'LF_head'"),
    ]

    @pytest.mark.parametrize("sep, labels, fault", LAST_TAKE_HEADERS,
                             ids=["swapped", "short cr", "long crlf"])
    def test_bad_header_on_last_take_fails_before_any_featurizing(
            self, dataset_dir, tmp_path, capsys, monkeypatch, sep, labels, fault):
        takes = tmp_path / "takes"
        takes.mkdir()
        for src in sorted(dataset_dir.glob("P00[0-2]_S0*")):
            (takes / src.name).write_bytes(src.read_bytes())
        bad = sorted(takes.glob("*.tsv"))[-1]
        header, *rows = bad.read_text().splitlines()
        bad.write_bytes(sep.join(["\t".join(["#MARKERS", *labels(list(MARKER_LABELS))]),
                                  *rows, ""]).encode())
        calls = []
        real = cli.extract_features
        monkeypatch.setattr(cli, "extract_features", lambda *a: calls.append(a) or real(*a))
        out = tmp_path / "out"
        rc = main(["extract", "--set", f"takes_dir={takes}", "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}:1: {fault} (a header is a bare #MARKERS" in err
        assert calls == []
        assert not list(out.rglob("features_*.csv"))
        # the full parse names the same fault
        with pytest.raises(ValueError) as info:
            load_take(bad)
        assert str(info.value) in err

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

    # (sidecar edits by take, None deleting the entry or, for the whole
    # sidecar, the file; the message and the files it names)
    BAD_IDS = [
        ({"P001_S00": {"participant_id": "P000"}},
         "are both participant 'P000', stimulus 'S00'", ["P000_S00.tsv", "P001_S00.tsv"]),
        ({"P001_S01": {"stimulus_id": None}}, "its sidecar gives no stimulus_id",
         ["P001_S01.tsv"]),
        ({"P000_S01": {"participant_id": ""}}, "its sidecar gives no participant_id",
         ["P000_S01.tsv"]),
        ({"P001_S00": {"frame_rate": -1}}, "frame_rate must be a finite number > 0, got -1",
         ["P001_S00.tsv"]),
        ({"P001_S01": {"frame_rate": 30}},
         "frame rate 30.0 Hz must exceed twice the cutoff (24.0 Hz)", ["P001_S01.tsv"]),
        ({"P000_S01": None}, "No such file or directory", ["P000_S01.json"]),
    ]

    @pytest.mark.parametrize("edits,message,named", BAD_IDS,
                             ids=["repeated pair", "missing id", "empty id",
                                  "negative frame rate", "frame rate below velocity filter",
                                  "missing sidecar"])
    def test_bad_take_ids_rejected_before_any_parse(
            self, dataset_dir, tmp_path, capsys, monkeypatch, edits, message, named):
        import movetrait.mocap as mocap

        takes = tmp_path / "takes"
        takes.mkdir()
        for src in sorted(dataset_dir.glob("P00[01]_*")):
            (takes / src.name).write_bytes(src.read_bytes())
        for take, changes in edits.items():
            sidecar = takes / f"{take}.json"
            if changes is None:
                sidecar.unlink()
                continue
            doc = json.loads(sidecar.read_text())
            for key, value in changes.items():
                if value is None:
                    del doc[key]
                else:
                    doc[key] = value
            sidecar.write_text(json.dumps(doc))
        parsed = []
        monkeypatch.setattr(mocap, "_read_decimal", lambda *a: parsed.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(takes, None).to_dict()))
        out = tmp_path / "out"
        assert main(["extract", "-c", str(cfg_path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err
        for name in named:
            assert str(takes / name) in err
        assert parsed == []
        assert not list(tmp_path.rglob("features_*.csv"))


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

    def test_each_input_hashed_once(self, dataset_dir, tmp_path, monkeypatch):
        # every stage opens each file it reads once, and its manifest lists
        # exactly those files, hashed from the bytes that were parsed;
        # extract also opens each take once before, to check its header
        cfg = make_config(dataset_dir, tmp_path / "out", traits=("EQ", "SQ"))
        stages = {"extract": cmd_extract, "train": cmd_train, "evaluate": cmd_evaluate,
                  "importance": cmd_importance, "report": cmd_report}
        peeked = []
        monkeypatch.setattr(cli, "check_take_header",
                            lambda path: peeked.append(path) or check_take_header(path))
        for stage, command in stages.items():
            existing = [p for root in (dataset_dir, tmp_path / "out")
                        for p in root.rglob("*") if p.is_file()]
            peeked.clear()
            with contextlib.ExitStack() as stack:
                opens = {p: stack.enter_context(_opens_of(p)) for p in existing}
                command(cfg)
            opened = {p: modes for p, modes in opens.items() if modes}
            assert sorted(peeked) == (sorted(dataset_dir.glob("*.tsv")) if stage == "extract"
                                      else []), stage
            assert all(len(modes) == 1 + peeked.count(p) for p, modes in opened.items()), (
                stage, opened)
            out_dir = cfg.resolved_features_dir() if stage == "extract" else tmp_path / "out" / stage
            manifest = json.loads((out_dir / "manifest.json").read_text())["inputs"]
            assert {Path(entry["path"]) for entry in manifest.values()} == set(opened), stage
            for entry in manifest.values():
                assert entry["sha256"] == hashlib.sha256(
                    Path(entry["path"]).read_bytes()).hexdigest()
        assert sorted(json.loads((tmp_path / "out" / "train" / "manifest.json").read_text())
                      ["inputs"]) == ["features", "features_rows", "traits"]

    def test_manifest_tracks_feature_row_sidecar(self, extracted, tmp_path):
        # swapping two rows' participants changes the targets the models are
        # fitted on, so it must change the manifest of every stage that reads them
        features = tmp_path / "features"
        features.mkdir()
        for src in extracted.resolved_features_dir().glob("features_*"):
            (features / src.name).write_bytes(src.read_bytes())
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ"], "eval_inputs": ["position"],
            "output_dir": str(tmp_path / "out"), "features_dir": str(features),
        })
        runs = []
        for swap in (False, True):
            if swap:
                sidecar = features / "features_position.csv.meta.json"
                doc = json.loads(sidecar.read_text())
                a, b = doc["rows"][0], doc["rows"][-1]
                assert a["participant_id"] != b["participant_id"]
                a["participant_id"], b["participant_id"] = b["participant_id"], a["participant_id"]
                sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            cmd_train(cfg)
            cmd_evaluate(cfg)
            runs.append({name: (tmp_path / "out" / name).read_bytes() for name in (
                "train/manifest.json", "evaluate/manifest.json", "train/model_EQ.json")})
        for name in runs[0]:
            assert runs[0][name] != runs[1][name], name
        for stage, key in (("train", "features_rows"), ("evaluate", "features_position_rows")):
            entry = json.loads(runs[1][f"{stage}/manifest.json"])["inputs"][key]
            assert entry == {"path": str(sidecar),
                             "sha256": hashlib.sha256(sidecar.read_bytes()).hexdigest()}

    def test_provenance_embedded(self, extracted):
        cmd_train(extracted)
        doc = json.loads(
            (extracted.resolved_output_dir() / "train" / "model_EQ.json").read_text()
        )
        assert doc["provenance"]["config_sha256"] == config_hash(extracted)
        assert doc["kind"] == "bayes_ridge"

    def test_workers_and_output_dir_do_not_change_model_bytes(self, dataset_dir, tmp_path):
        runs = []
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            rc = main(["extract", "-c", str(self._config(dataset_dir, tmp_path)),
                       "--output-dir", str(out), "--workers", str(workers)])
            rc += main(["train", "-c", str(self._config(dataset_dir, tmp_path)),
                        "--output-dir", str(out), "--workers", str(workers)])
            assert rc == 0
            runs.append(sorted((out / "train").glob("model_*.json")))
        assert [p.name for p in runs[0]] == [p.name for p in runs[1]] != []
        for a, b in zip(*runs):
            assert a.read_bytes() == b.read_bytes(), a.name

    @staticmethod
    def _config(dataset_dir, tmp_path) -> Path:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_config(dataset_dir, None, traits=["EQ", "SQ"]).to_dict()))
        return path

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
        path = cfg.resolved_features_dir() / "features_position.csv"
        pids = [pid for pid, _ in load_feature_rows(path)]
        X, Y, _ = build_dataset(load_feature_matrix(path), pids, table, cfg.traits,
                                cfg.dataset_mode)
        X = apply_gaussian_stats(X, *gaussian_stats(X))
        for trait, y in zip(cfg.traits, Y.T):
            expected = fit_bayes_ridge(centered_svd(X), y, tol=cfg.bayes_tol,
                                       max_iter=cfg.bayes_max_iter).model
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
        assert len(table.cells) == 8  # 4 input kinds x 2 models
        logged = capsys.readouterr().out
        assert "event=leakage_audit" in logged
        assert "shared_participants=0" in logged
        out = extracted.resolved_output_dir() / "evaluate"
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "manifest.json", "scores.csv", "scores.txt"]

    def test_seed_changes_fold_assignment(self, extracted):
        cfg1 = PipelineConfig.from_dict(
            {**extracted.to_dict(), "traits": ["EQ"], "eval_inputs": ["position"]}
        )
        cfg2 = PipelineConfig.from_dict({**cfg1.to_dict(), "fold_seed": 99})
        t1 = cmd_evaluate(cfg1)
        t2 = cmd_evaluate(cfg2)
        r1 = t1.cells["position", "bayes_ridge", "EQ"]
        r2 = t2.cells["position", "bayes_ridge", "EQ"]
        assert r1.fold_rmse != r2.fold_rmse

    def test_score_cells_follow_config_order(self, extracted, tmp_path):
        inputs, models, traits = ["velocity_n", "position"], ["bayes_ridge", "pcr"], ["SQ", "EQ"]
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "eval_inputs": inputs, "model_kinds": models,
            "traits": traits, "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        table = cmd_evaluate(cfg)
        order = [(i, m, t) for i in inputs for m in models for t in traits]
        assert list(table.cells) == order
        out = tmp_path / "evaluate"
        rows = [line.split(",") for line in (out / "scores.csv").read_text().splitlines()[1:]]
        assert [tuple(r[:3]) for r in rows] == order
        for row in rows:
            res = table.cells[tuple(row[:3])]
            assert row[-2:] == [f"{res.pooled_rmse:.17g}", f"{res.pooled_r2:.17g}"]
        blocks = (out / "scores.txt").read_text().split("=== Trait ")[1:]
        assert [b.split()[0] for b in blocks] == traits
        labels = {"velocity_n": "Velocity(N)", "position": "Position"}
        for block, trait in zip(blocks, traits):
            table_lines = block.split("\n\n")[0].splitlines()[2:]
            lines = {line.split()[0]: line for line in table_lines}
            assert sorted(lines) == sorted(labels.values())
            for i in inputs:
                # every cell of the row, PCR before Bayesian ridge whatever the config order
                line, at = lines[labels[i]], 0
                for m in ("pcr", "bayes_ridge"):
                    res = table.cells[i, m, trait]
                    for v in (res.mean_rmse, res.mean_r2):
                        at = line.index(f"{v:.3f}", at) + 1

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
            for key in ("converged_folds", "max_iterations", "clamped_folds"):
                assert (f"{key}=" in line) == ("model=bayes_ridge" in line)
        for name in ("scores.csv", "scores.txt"):
            text = (tmp_path / "evaluate" / name).read_text()
            assert "converged" not in text and "iterations" not in text
            assert "clamped" not in text

    def test_normalized_inputs_report_extrapolation(self, extracted, tmp_path, capsys):
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ"], "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        table = cmd_evaluate(cfg)
        cells = [dict(part.split("=", 1) for part in line.split())
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("event=evaluate ")]
        assert len(cells) == 4 * 2
        for kv in cells:
            normalized = kv["input"].endswith("_n")
            assert ("out_of_range" in kv) == ("max_abs_z" in kv) == normalized
            res = table.cells[kv["input"], kv["model"], "EQ"]
            assert ("out_of_range" in res.diagnostics) == normalized
        # the fixture's velocity kernel features sit near 0 on every training
        # row of a fold and not on its validation rows
        for kv in cells:
            if kv["input"] == "velocity_n":
                assert int(kv["out_of_range"]) > 0
                assert float(kv["max_abs_z"]) > 1e4
        for name in ("scores.csv", "scores.txt"):
            text = (tmp_path / "evaluate" / name).read_text()
            assert "out_of_range" not in text and "max_abs_z" not in text

    def test_each_feature_file_loaded_once(self, extracted, tmp_path, monkeypatch):
        import movetrait.cli as cli

        loaded = []
        load = cli.load_feature_matrix
        monkeypatch.setattr(cli, "load_feature_matrix",
                            lambda path, *rows, **kw: loaded.append(path.name)
                            or load(path, *rows, **kw))
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ"], "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        cmd_evaluate(cfg)
        assert sorted(loaded) == ["features_position.csv", "features_velocity.csv"]

    @pytest.mark.parametrize("stage", ["train", "evaluate", "report"])
    def test_feature_csv_opened_once(self, extracted, tmp_path, stage):
        features = extracted.resolved_features_dir() / "features_position.csv"
        traits = Path(extracted.traits_csv)
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ"], "eval_inputs": ["position", "position_n"],
            "output_dir": str(tmp_path), "features_dir": str(features.parent),
        })
        with _opens_of(features) as opened, _opens_of(traits) as traits_opened:
            {"train": cmd_train, "evaluate": cmd_evaluate, "report": cmd_report}[stage](cfg)
        assert len(opened) == (stage != "report")
        assert len(traits_opened) == 1
        manifest = json.loads((tmp_path / stage / "manifest.json").read_text())
        traits_digest = hashlib.sha256(traits.read_bytes()).hexdigest()
        assert manifest["inputs"]["traits"]["sha256"] == traits_digest
        digest = hashlib.sha256(features.read_bytes()).hexdigest()
        if stage == "train":
            assert manifest["inputs"]["features"]["sha256"] == digest
            model = json.loads((tmp_path / "train" / "model_EQ.json").read_text())
            assert model["provenance"]["features_sha256"] == digest
            assert model["provenance"]["traits_sha256"] == traits_digest
        elif stage == "evaluate":
            assert manifest["inputs"]["features_position"]["sha256"] == digest

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

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_participant_missing_from_traits_fails_before_csv_parse(
            self, extracted, tmp_path, capsys, monkeypatch, command):
        lines = Path(extracted.traits_csv).read_text().splitlines()
        dropped = lines.pop(4).split(",")[0]
        traits = tmp_path / "traits.csv"
        traits.write_text("\n".join(lines) + "\n")
        parsed = []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            **extracted.to_dict(), "traits_csv": str(traits),
            "features_dir": str(extracted.resolved_features_dir()),
        }))
        out = tmp_path / "out"
        assert main([command, "-c", str(cfg_path), "--output-dir", str(out)]) == 1
        features = extracted.resolved_features_dir() / "features_position.csv"
        assert (f"{features}: participant {dropped!r} has no 'O' value in {traits}"
                in capsys.readouterr().err)
        assert parsed == []
        assert not out.exists()

    def test_participants_split_across_grouped_folds_fail(
            self, extracted, tmp_path, capsys, monkeypatch):
        import movetrait.cli as cli

        plan = cli.make_fold_plan
        monkeypatch.setattr(cli, "make_fold_plan",
                            lambda n, folds, seed, groups: plan(n, folds, seed, None))
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ"], "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        assert cfg.grouping == "participant"
        with pytest.raises(ValueError, match="split across folds despite grouping=participant"):
            cmd_evaluate(cfg)
        out = capsys.readouterr().out
        assert "event=leakage_audit" in out and "shared_participants=0" not in out
        assert "event=evaluate " not in out
        assert not list(tmp_path.glob("evaluate/scores.*"))

    def test_reference_rendered_in_text(self, extracted):
        cfg = PipelineConfig.from_dict({**extracted.to_dict(), "traits": ["EQ"]})
        cmd_evaluate(cfg)
        text = (extracted.resolved_output_dir() / "evaluate" / "scores.txt").read_text()
        assert "(ref 2.722)" in text and "(ref 0.771)" in text


def _replace_cell(path):
    lines = path.read_text().splitlines()
    lines[1] = "abc" + lines[1][lines[1].index(","):]
    path.write_text("\n".join(lines) + "\n")


def _nan_on_line_4(path):
    lines = path.read_text().splitlines()
    lines[3] = "nan" + lines[3][lines[3].index(","):]
    path.write_text("\n".join(lines) + "\n")


def _hash_in_last_cell_of_line_3(path):
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:lines[2].rindex(",") + 1] + "0.04#1034290714259722"
    path.write_text("\n".join(lines) + "\n")


def _drop_last_row(path):
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


class TestBadReadBackFiles:
    # (stage, file it reads back, how the file is spoiled, message right after the path)
    BAD_FILES = [
        ("evaluate", "features_position.csv", _replace_cell,
         ":2: unparseable value 'abc' in column 1"),
        ("train", "features_position.csv", _nan_on_line_4,
         ":4: non-finite value 'nan' in column 1"),
        ("evaluate", "features_position.csv", _nan_on_line_4,
         ":4: non-finite value 'nan' in column 1"),
        ("train", "features_position.csv", _hash_in_last_cell_of_line_3,
         ":3: unparseable value '0.04#1034290714259722' in column 1770"),
        ("train", "features_position.csv", _drop_last_row,
         ": row metadata length 20 != row count 19"),
        ("evaluate", "features_position.csv.meta.json",
         lambda p: p.write_text('{\n  "rows": [\n'), ": Expecting value: line 3 column 1"),
        ("train", "features_position.csv.meta.json", lambda p: p.write_text("{}\n"),
         ": no 'rows' entry"),
        ("importance", "model_O.json", lambda p: p.write_text("not json\n"),
         ": Expecting value: line 1 column 1 (char 0)"),
        ("importance", "model_O.json", lambda p: p.write_text("[1]\n"),
         ": model file holds a list, not a JSON object"),
    ]

    @pytest.mark.parametrize("stage,name,spoil,message", BAD_FILES, ids=[
        "non-numeric cell", "nan cell in train", "nan cell in evaluate", "hash in a cell",
        "row short of sidecar", "truncated sidecar", "sidecar without rows", "non-JSON model",
        "model not an object"])
    def test_bad_file_is_named_and_stage_writes_nothing(
            self, extracted, tmp_path, capsys, stage, name, spoil, message):
        features = tmp_path / "features"
        features.mkdir()
        for src in extracted.resolved_features_dir().glob("features_*"):
            (features / src.name).write_bytes(src.read_bytes())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**extracted.to_dict(), "features_dir": str(features)}))
        out = tmp_path / "out"
        if stage == "importance":
            assert main(["train", "-c", str(cfg_path), "--output-dir", str(out)]) == 0
            bad = out / "train" / name
        else:
            bad = features / name
        spoil(bad)
        capsys.readouterr()
        assert main([stage, "-c", str(cfg_path), "--output-dir", str(out)]) == 1
        assert f"error: {bad}{message}" in capsys.readouterr().err
        assert not (out / stage).exists()


def _scan_csv(path, raw):
    return scan_table(path, raw, ",", lambda lineno, line: line.count(",") + 1)


class TestFeatureReadTiers:
    """The feature CSVs of a real extract through the exact reader and through
    the line scan alone."""

    @pytest.mark.parametrize("kind", ["position", "velocity"])
    def test_reader_matches_scan(self, extracted, kind):
        path = extracted.resolved_features_dir() / f"features_{kind}.csv"
        raw = path.read_bytes()
        fast = read_exact_csv(raw)
        assert fast is not None and fast.shape == (20, 1770)
        assert fast.tobytes() == _scan_csv(path, raw).tobytes()
        assert load_feature_matrix(path).tobytes() == fast.tobytes()

    @pytest.mark.parametrize("spoil", [
        _replace_cell, _nan_on_line_4, _hash_in_last_cell_of_line_3, _drop_last_row,
        lambda p: p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))],
        ids=["non-numeric cell", "nan cell", "hash in a cell", "row short of sidecar", "crlf"])
    def test_damage_ends_as_the_scan_does(self, extracted, tmp_path, spoil):
        """Each ``TestBadReadBackFiles`` damage to a cell is declined by the
        reader and fails with the scan's exact message; a dropped row reads
        alike through both and fails on the row count; CRLF line ends go
        to the scan and load the same values."""
        src = extracted.resolved_features_dir() / "features_position.csv"
        path = tmp_path / src.name
        for original, copy in ((src, path), (rows_path(src), rows_path(path))):
            copy.write_bytes(original.read_bytes())
        spoil(path)
        raw = path.read_bytes()
        try:
            expected = _scan_csv(path, raw)
        except ValueError as exc:
            assert read_exact_csv(raw) is None
            with pytest.raises(ValueError) as got:
                load_feature_matrix(path)
            assert str(got.value) == str(exc)
            return
        fast = read_exact_csv(raw)
        if b"\r" in raw:
            assert fast is None
            assert load_feature_matrix(path).tobytes() == expected.tobytes()
        else:
            assert fast.tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match=r": row metadata length 20 != row count 19$"):
                load_feature_matrix(path)


def _constant_eq_config(extracted, tmp_path) -> tuple[Path, Path]:
    """A config file over ``extracted``'s features whose trait table gives
    every participant EQ 40, and that trait table."""
    lines = Path(extracted.traits_csv).read_text().splitlines()
    column = lines[0].split(",").index("EQ")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[column] = "40"
        lines[i] = ",".join(cells)
    traits = tmp_path / "traits.csv"
    traits.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **extracted.to_dict(), "traits_csv": str(traits),
        "features_dir": str(extracted.resolved_features_dir()),
    }))
    return cfg_path, traits


def test_constant_trait_rejected_before_any_output(extracted, tmp_path, capsys):
    cfg_path, traits = _constant_eq_config(extracted, tmp_path)
    out = tmp_path / "out"
    features = extracted.resolved_features_dir() / "features_position.csv"
    for stage, message in (
            ("train", f"{features}: trait 'EQ' is 40 on every row, as {traits} gives it"),
            ("evaluate", f"{features}: trait 'EQ' is 40 on every row, as {traits} gives it"),
            ("report", f"{traits}: trait 'EQ' is 40 for every participant")):
        capsys.readouterr()
        assert main([stage, "-c", str(cfg_path), "--output-dir", str(out)]) == 1, stage
        assert f"error: {message}" in capsys.readouterr().err, stage
    assert not list(out.rglob("model_*.json"))
    assert not list(out.rglob("scores.csv"))
    assert not list(out.rglob("report.txt"))


# (EQ values by participant, config changes, message after the feature file);
# with grouping=participant and fold_seed 0, fold 0 validates P004 and P005
# of 20 per-stimulus rows, and fold 4 only P003 of 10 participant means
BAD_FOLDS = [
    ({"P004": "40", "P005": "40"}, {},
     "trait 'EQ' is 40 on every validation row of fold 0 (participants P004, P005)"),
    ({}, {"dataset_mode": "participant_mean", "n_folds": 6},
     "fold 4 (participants P003) has fewer than 2 validation rows"),
    ({}, {"n_folds": 12}, "n_folds=12: 10 groups cannot fill 12 folds"),
    ({}, {"grouping": "none", "n_folds": 21}, "n_folds=21: 20 samples cannot fill 21 folds"),
]


@pytest.mark.parametrize("values,changes,message", BAD_FOLDS,
                         ids=["trait constant in a fold", "one-row fold",
                              "more folds than participants", "more folds than rows"])
def test_bad_validation_fold_rejected_before_any_fit(
        extracted, tmp_path, capsys, monkeypatch, values, changes, message):
    import movetrait.cli as cli

    lines = Path(extracted.traits_csv).read_text().splitlines()
    column = lines[0].split(",").index("EQ")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[column] = values.get(cells[0], cells[column])
        lines[i] = ",".join(cells)
    traits = tmp_path / "traits.csv"
    traits.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **extracted.to_dict(), "traits_csv": str(traits),
        "features_dir": str(extracted.resolved_features_dir()), **changes,
    }))
    fits = []
    monkeypatch.setattr(cli, "cross_validate", lambda *a, **kw: fits.append(a))
    out = tmp_path / "out"
    assert main(["evaluate", "-c", str(cfg_path), "--output-dir", str(out)]) == 1
    features = extracted.resolved_features_dir() / "features_position.csv"
    assert f"error: {features}: {message}" in capsys.readouterr().err
    assert fits == []
    assert not list(out.rglob("scores.*"))


class TestImportanceAndReport:
    def test_importance_outputs(self, extracted):
        cmd_train(extracted)
        written = cmd_importance(extracted)
        out = extracted.resolved_output_dir() / "importance"
        assert (out / "importance_EQ.csv").exists()
        assert (out / "radar_EQ_SQ.svg").exists()
        assert (out / "importance_personality_summary.csv").exists()
        assert (out / "manifest.json").exists()

    def test_pcr_train_then_importance_via_main(self, extracted, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            **extracted.to_dict(), "train_model": "pcr", "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        }))
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["importance", "-c", str(cfg_path)]) == 0
        for trait in extracted.traits:
            doc = json.loads((tmp_path / "train" / f"model_{trait}.json").read_text())
            assert doc["kind"] == "pcr"
            assert len(doc["weights"]) == 1770
            assert "basis" not in doc
            assert (tmp_path / "importance" / f"importance_{trait}.csv").exists()

    def test_centered_model_file_fails_importance(self, extracted, tmp_path, capsys):
        # a model file from before the training means folded into the intercept
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            **extracted.to_dict(), "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        }))
        assert main(["train", "-c", str(cfg_path)]) == 0
        path = tmp_path / "train" / "model_N.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "x_mean": [0.0] * len(doc["weights"])}))
        capsys.readouterr()
        assert main(["importance", "-c", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: a model file of a former layout (it holds 'x_mean'); run train again" in err
        assert not (tmp_path / "importance").exists()

    def test_report_contains_spearman_and_reference(self, extracted):
        cfg = PipelineConfig.from_dict({**extracted.to_dict(), "traits": ["EQ"]})
        cmd_evaluate(cfg)
        report = cmd_report(extracted)
        text = report.read_text()
        assert "Spearman correlation" in text
        assert "(ref" in text  # at least one reference annotation
        csv_path = extracted.resolved_output_dir() / "report" / "trait_spearman.csv"
        assert csv_path.exists()

    def test_report_manifest_lists_scores_txt(self, extracted, tmp_path):
        cfg = PipelineConfig.from_dict({
            **extracted.to_dict(), "traits": ["EQ"], "eval_inputs": ["position"],
            "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir()),
        })
        manifest = tmp_path / "report" / "manifest.json"
        cmd_report(cfg)
        assert sorted(json.loads(manifest.read_text())["inputs"]) == ["traits"]
        cmd_evaluate(cfg)
        cmd_report(cfg)
        before = manifest.read_bytes()
        scores_txt = tmp_path / "evaluate" / "scores.txt"
        entry = json.loads(before)["inputs"]["scores_txt"]
        assert entry == {"path": str(scores_txt),
                         "sha256": hashlib.sha256(scores_txt.read_bytes()).hexdigest()}
        scores_txt.write_text(scores_txt.read_text().replace("Position", "Posture"))
        cmd_report(cfg)
        assert manifest.read_bytes() != before
        assert "Posture" in (tmp_path / "report" / "report.txt").read_text()


class TestMainEntry:
    def test_synth_subcommand(self, tmp_path):
        spec = default_strong_spec(participants=2, stimuli=1, frames=30, seed=2)
        spec_path = tmp_path / "spec.json"
        spec.to_json(spec_path)
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")])
        assert rc == 0
        assert len(list((tmp_path / "data").glob("*.tsv"))) == 2

    # (spec file body, message after the path)
    BAD_SPECS = [
        ('{"participants": 2}', "synth spec has no 'stimuli' field"),
        ("[1]", "synth spec holds a list, not a JSON object"),
        ('{"participants": 2, "stimuli": 1, "frames": "many", "frame_rate": 120}',
         "invalid literal for int() with base 10: 'many'"),
        ("{oops", "Expecting property name enclosed in double quotes"),
    ]

    @pytest.mark.parametrize("body,message", BAD_SPECS)
    def test_bad_synth_spec_named(self, tmp_path, capsys, body, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(body)
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {spec_path}: {message}")
        assert not (tmp_path / "data").exists()

    def test_synth_write_error_exits_1_and_leaves_no_worker(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        default_strong_spec(participants=4, stimuli=1, frames=30, seed=2).to_json(spec_path)
        blocked = tmp_path / "data" / "P002_S00.tsv"
        blocked.mkdir(parents=True)
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocked) in err
        assert not multiprocessing.active_children()

    def test_stage_logs_end_with_seconds(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        default_strong_spec(participants=10, stimuli=1, frames=40, seed=3).to_json(spec_path)
        data = tmp_path / "data"
        cfg = PipelineConfig(takes_dir=str(data), traits_csv=str(data / "traits.csv"),
                             output_dir=str(tmp_path / "out"), traits=("EQ",),
                             pcr_components={"position": 3, "velocity": 3})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        finals = {"synth": "synth", "extract": "extract", "train": "train",
                  "evaluate": "evaluate_done", "importance": "importance", "report": "report"}
        for stage, event in finals.items():
            args = (["--spec", str(spec_path), "--out", str(data)] if stage == "synth"
                    else ["-c", str(cfg_path)])
            assert main([stage, *args]) == 0
            lines = capsys.readouterr().out.splitlines()
            last = dict(part.split("=", 1) for part in lines[-1].split())
            assert last["event"] == event
            assert float(last["seconds"]) >= 0
        assert all(b"seconds" not in path.read_bytes()
                   for path in (tmp_path / "out").rglob("*") if path.is_file())

    def test_import_loads_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        # the synth writer's process pool is loaded on first use, so no
        # stage pays for multiprocessing either
        code = ("import sys, movetrait, movetrait.cli; "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.') "
                "or m.startswith('multiprocessing') or m == 'concurrent.futures.process'])")
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.strip() == "[]"

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


def _blas_threads() -> list[int]:
    """Each loaded OpenBLAS's thread count, read through its own getter."""
    return [get() for get, _ in blas_thread_calls()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on 2 threads for the test, then as it was."""
    calls = blas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS thread setter in this numpy build")
    previous = _blas_threads()
    for _, set_threads in calls:
        set_threads(2)
    yield _blas_threads()
    for (_, set_threads), n in zip(calls, previous):
        set_threads(n)


class TestBlasThreads:
    """``train`` and ``evaluate`` fit on one BLAS thread and restore the count;
    the other stages leave it alone."""

    def test_fit_outputs_do_not_depend_on_thread_count(self, tmp_path):
        # 40 participants leave 32-row training folds, large enough that a
        # 2-thread OpenBLAS splits the fold SVDs and changes their last bits
        # (6 of 7 models and scores.csv, without the pin)
        data = tmp_path / "data"
        write_dataset(default_strong_spec(participants=40, stimuli=1, frames=60, seed=1), data)
        cfg = PipelineConfig(takes_dir=str(data), traits_csv=str(data / "traits.csv"),
                             features_dir=str(tmp_path / "features"),
                             pcr_components={"position": 24, "velocity": 16})
        cmd_extract(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        src = Path(__file__).resolve().parent.parent / "src"
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            for stage in ("train", "evaluate"):
                out = subprocess.run(
                    [sys.executable, "-m", "movetrait.cli", stage, "-c", str(cfg_path),
                     "--output-dir", str(tmp_path / threads)],
                    env=env, capture_output=True, text=True, timeout=120, check=True).stdout
                assert out.startswith("event=blas threads=1 previous="), out
        files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*")
                       if p.name.startswith("model_") or p.name == "scores.csv")
        assert len(files) == 8
        for name in files:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_fits_run_on_one_thread(self, extracted, tmp_path, monkeypatch, capsys,
                                    two_blas_threads):
        import movetrait.cli as cli
        import movetrait.evaluation as evaluation

        seen = []

        def spy(X):
            seen.append(_blas_threads())
            return centered_svd(X)

        monkeypatch.setattr(cli, "centered_svd", spy)
        monkeypatch.setattr(evaluation, "centered_svd", spy)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            **extracted.to_dict(), "output_dir": str(tmp_path),
            "features_dir": str(extracted.resolved_features_dir())}))
        for stage in ("train", "evaluate"):
            assert main([stage, "-c", str(cfg_path)]) == 0
            first = capsys.readouterr().out.splitlines()[0]
            previous = ",".join(map(str, two_blas_threads))
            assert first == f"event=blas threads=1 previous={previous}"
            assert _blas_threads() == two_blas_threads
        assert len(seen) == 1 + 4 * 5   # train's factor and every fold of 4 inputs
        assert all(threads == [1] * len(two_blas_threads) for threads in seen)
        assert all(b"blas" not in path.read_bytes()
                   for path in tmp_path.rglob("*") if path.is_file())

    def test_count_restored_after_a_failed_stage(self, extracted, tmp_path, capsys,
                                                 two_blas_threads):
        cfg_path, _ = _constant_eq_config(extracted, tmp_path)
        for stage in ("train", "evaluate"):
            assert main([stage, "-c", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
            assert "trait 'EQ' is 40 on every row" in capsys.readouterr().err
            assert _blas_threads() == two_blas_threads

    def test_other_stages_leave_the_count_alone(self, dataset_dir, tmp_path, monkeypatch,
                                                capsys, two_blas_threads):
        import movetrait.cli as cli

        cfg = make_config(dataset_dir, tmp_path, traits=("EQ", "SQ"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["extract", "-c", str(cfg_path)]) == 0
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert main(["evaluate", "-c", str(cfg_path)]) == 0
        seen = []
        for name in ("extract_features", "importance_from_model", "spearman"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real: (
                seen.append((real.__name__, _blas_threads())), real(*a))[1])
        capsys.readouterr()
        for stage in ("extract", "importance", "report"):
            assert main([stage, "-c", str(cfg_path)]) == 0
            assert _blas_threads() == two_blas_threads
        assert "event=blas" not in capsys.readouterr().out
        assert {name for name, _ in seen} == {"extract_features", "importance_from_model",
                                              "spearman"}
        assert all(threads == two_blas_threads for _, threads in seen)

    def test_no_setter_found_runs_unpinned(self, extracted, tmp_path, monkeypatch, capsys):
        import movetrait.cli as cli

        monkeypatch.setattr(cli, "blas_thread_calls", lambda: [])
        before = _blas_threads()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            **extracted.to_dict(), "output_dir": str(tmp_path), "traits": ["EQ"],
            "features_dir": str(extracted.resolved_features_dir())}))
        for stage in ("train", "evaluate"):
            assert main([stage, "-c", str(cfg_path)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == "event=blas threads=unpinned"
        assert _blas_threads() == before
