import json
import math

import numpy as np
import pytest

from movetrait.mocap import (
    DEFAULT_FRAME_RATE,
    JointTake,
    Kind,
    MarkerTake,
    SkeletonMap,
    TakeFormatError,
    butter_lowpass,
    derive_joints,
    differentiate,
    filter_magnitude_squared,
    load_take,
    velocity,
    zero_phase_filter,
    JOINT_LABELS,
    MARKER_LABELS,
    _parse_loadtxt,
    _scan_take,
)


def write_take(tmp_path, rows, frame_rate=120.0, name="take", header=True,
               sidecar=True):
    lines = []
    if header:
        lines.append("#MARKERS\t" + "\t".join(MARKER_LABELS))
    for row in rows:
        lines.append("\t".join(str(v) for v in row))
    path = tmp_path / f"{name}.tsv"
    path.write_text("\n".join(lines) + "\n")
    if sidecar:
        path.with_suffix(".json").write_text(json.dumps({
            "frame_rate": frame_rate,
            "participant_id": "P1",
            "stimulus_id": "S1",
        }))
    return path


def marker_take(data, frame_rate=120.0):
    return MarkerTake(data=np.asarray(data, dtype=float), frame_rate=frame_rate)


class TestLoadTake:
    def test_minimal_two_frame_file(self, tmp_path):
        path = write_take(tmp_path, [range(63), range(63)])
        take = load_take(path)
        assert take.frames == 2
        assert take.frame_rate == 120.0
        assert take.participant_id == "P1"
        assert take.conformant

    def test_column_count_mismatch(self, tmp_path):
        path = write_take(tmp_path, [range(62), range(62)])
        with pytest.raises(TakeFormatError, match="column count mismatch"):
            load_take(path)

    def test_nan_cell_rejected(self, tmp_path):
        row = ["1.0"] * 63
        row[10] = "NaN"
        path = write_take(tmp_path, [row, ["1.0"] * 63])
        with pytest.raises(TakeFormatError, match="non-finite sample"):
            load_take(path)

    def test_error_carries_file_and_line(self, tmp_path):
        path = write_take(tmp_path, [["1.0"] * 63, ["1.0"] * 62])
        with pytest.raises(TakeFormatError, match=rf"{path.name}:3"):
            load_take(path)

    def test_single_frame_rejected(self, tmp_path):
        path = write_take(tmp_path, [range(63)])
        with pytest.raises(TakeFormatError, match="fewer than 2 frames"):
            load_take(path)

    def test_nonpositive_frame_rate_rejected(self, tmp_path):
        path = write_take(tmp_path, [range(63), range(63)], frame_rate=0.0)
        with pytest.raises(TakeFormatError, match="frame_rate"):
            load_take(path)

    def test_missing_frame_rate_defaults_with_warning(self, tmp_path):
        path = write_take(tmp_path, [range(63), range(63)], sidecar=False)
        with pytest.warns(UserWarning, match="assuming"):
            take = load_take(path)
        assert take.frame_rate == DEFAULT_FRAME_RATE

    def test_unparseable_token_names_line(self, tmp_path):
        row = ["1.0"] * 63
        row[5] = "abc"
        path = write_take(tmp_path, [["0.0"] * 63, row])
        with pytest.raises(TakeFormatError, match=rf"{path.name}:3.*abc"):
            load_take(path)


def _tsv(rows, header=True, sep="\n", end="\n"):
    lines = ["#MARKERS\t" + "\t".join(MARKER_LABELS)] if header else []
    lines += ["\t".join(str(v) for v in row) for row in rows]
    return (sep.join(lines) + end).encode()


def _random_rows(fmt, seed):
    # magnitudes from subnormal to huge, signed zeros included
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(5, 63)) * 10.0 ** rng.integers(-310, 300, size=(5, 63))
    values[0, :4] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
    return [[fmt(v) for v in row] for row in values.tolist()]


_ONES = [["1.5"] * 63] * 3

# (id, file bytes, outcome): "fast" when np.loadtxt's result is taken,
# "scan" when only the line scan accepts the file, "error" when it is refused
PARSE_CASES = [
    ("plain", _tsv(_ONES), "fast"),
    ("crlf", _tsv(_ONES, sep="\r\n", end="\r\n"), "fast"),
    ("blank-lines", b"\n\n".join(_tsv(_ONES).split(b"\n")) + b"\n\n", "fast"),
    ("no-header", _tsv(_ONES, header=False), "fast"),
    ("custom-header", b"#MARKERS\ta\tb\n1\t2\t3\t4\t5\t6\n7\t8\t9\t10\t11\t12\n", "fast"),
    ("bare-header", b"#MARKERS\n" + _tsv(_ONES, header=False), "fast"),
    ("leading-spaces", _tsv([[" 1.5"] * 63, ["  -2"] * 63]), "fast"),
    ("random-17g", _tsv(_random_rows(lambda v: "%.17g" % v, 1)), "fast"),
    ("random-repr", _tsv(_random_rows(repr, 2)), "fast"),
    ("underscore", _tsv([["1_000"] * 63, ["2"] * 63]), "scan"),
    ("lone-cr", _tsv(_ONES, sep="\r", end="\r"), "scan"),
    ("cr-in-header", b"#MARKERS\ta\tb\r1\t2\t3\t4\t5\t6\n7\t8\t9\t10\t11\t12\n", "scan"),
    ("cr-splits-header", b"#MARKERS\ta\tb\rc\n1\t2\t3\t4\t5\t6\n7\t8\t9\t10\t11\t12\n", "error"),
    ("trailing-tab", _tsv([["1"] * 63 + [""]] * 2), "error"),
    ("whitespace-line", _tsv(_ONES[:1] + [[" "]] + _ONES[:1]), "error"),
    ("hash-line-mid", _tsv(_ONES[:1] + [["# note"]] + _ONES[:1]), "error"),
    ("header-on-line-2", b"\n" + _tsv(_ONES), "error"),
    ("nan", _tsv([["nan"] * 63, ["1"] * 63]), "error"),
    ("inf", _tsv([["1"] * 63, ["1"] * 62 + ["-inf"]]), "error"),
    ("one-row", _tsv(_ONES[:1]), "error"),
    ("empty", b"", "error"),
    ("header-only", _tsv([]), "error"),
    ("blank-only", b"\n\r\n\n", "error"),
    ("short-row", _tsv(_ONES[:1] + [["1.5"] * 62]), "error"),
    ("wrong-width", _tsv([["1.5"] * 62] * 2), "error"),
    ("unparseable", _tsv(_ONES[:1] + [["1.5"] * 62 + ["1.5.1"]]), "error"),
    ("bom", b"\xef\xbb\xbf" + _tsv(_ONES), "error"),
    ("not-utf8", _tsv(_ONES) + b"1\xff\n", "error"),
]


class TestParsePaths:
    """load_take against the line scan alone, on the same bytes."""

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on input with no rows
    @pytest.mark.parametrize("raw,outcome", [c[1:] for c in PARSE_CASES],
                             ids=[c[0] for c in PARSE_CASES])
    def test_matches_line_scan(self, tmp_path, raw, outcome):
        path = tmp_path / "take.tsv"
        path.write_bytes(raw)
        assert (_parse_loadtxt(raw) is not None) == (outcome == "fast")
        try:
            markers, data = _scan_take(path, raw)
        except TakeFormatError as exc:
            assert outcome == "error"
            with pytest.raises(TakeFormatError) as got:
                load_take(path, {"frame_rate": 120.0})
            assert str(got.value) == str(exc)
            return
        assert outcome != "error"
        take = load_take(path, {"frame_rate": 120.0})
        assert take.markers == markers
        assert take.data.shape == data.shape
        assert take.data.tobytes() == data.tobytes()

    def test_raw_bytes_used_instead_of_reading(self, tmp_path):
        raw = _tsv(_ONES)
        take = load_take(tmp_path / "never_written.tsv", {"frame_rate": 120.0}, raw=raw)
        assert take.frames == 3


# (id, sidecar bytes, take bytes, message): each message names the file at fault
BAD_INPUTS = [
    ("take-not-utf8", b'{"frame_rate": 120}', _tsv(_ONES) + b"\xff\n",
     r"take\.tsv: not valid UTF-8"),
    ("frame-rate-string", b'{"frame_rate": "fast"}', _tsv(_ONES),
     r"take\.tsv: frame_rate must be a finite number > 0, got 'fast'"),
    ("frame-rate-numeric-string", b'{"frame_rate": "120"}', _tsv(_ONES),
     r"take\.tsv: frame_rate must be a finite number > 0, got '120'"),
    ("frame-rate-infinity", b'{"frame_rate": Infinity}', _tsv(_ONES),
     r"take\.tsv: frame_rate must be a finite number > 0, got inf"),
    ("frame-rate-nan", b'{"frame_rate": NaN}', _tsv(_ONES),
     r"take\.tsv: frame_rate must be a finite number > 0, got nan"),
    ("frame-rate-bool", b'{"frame_rate": true}', _tsv(_ONES),
     r"take\.tsv: frame_rate must be a finite number > 0, got True"),
    ("frame-rate-null", b'{"frame_rate": null}', _tsv(_ONES),
     r"take\.tsv: frame_rate must be a finite number > 0, got None"),
    ("frame-rate-negative", b'{"frame_rate": -120}', _tsv(_ONES),
     r"take\.tsv: frame_rate must be a finite number > 0, got -120"),
    ("sidecar-list", b"[120]", _tsv(_ONES),
     r"take\.json: sidecar must be a JSON object, got list"),
    ("sidecar-not-json", b"{frame_rate: 120}", _tsv(_ONES),
     r"take\.json: invalid sidecar JSON"),
    ("sidecar-not-utf8", b'{"frame_rate": 120, "stimulus_id": "\xff"}', _tsv(_ONES),
     r"take\.json: invalid sidecar JSON"),
]


@pytest.mark.parametrize("sidecar,raw,message", [c[1:] for c in BAD_INPUTS],
                         ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_names_file(tmp_path, sidecar, raw, message):
    path = tmp_path / "take.tsv"
    path.write_bytes(raw)
    path.with_suffix(".json").write_bytes(sidecar)
    with pytest.raises(TakeFormatError, match=message):
        load_take(path)


class TestDeriveJoints:
    def test_all_markers_at_one_point(self):
        p = np.array([10.0, -5.0, 3.0])
        data = np.tile(p, (4, 21))
        joints = derive_joints(marker_take(data))
        assert joints.kind is Kind.POSITION
        assert joints.data.shape == (4, 60)
        expected = np.tile(p, (4, 20))
        np.testing.assert_array_equal(joints.data, expected)

    def test_root_is_hip_midpoint(self):
        data = np.zeros((2, 63))
        data[0, 3 * 7:3 * 7 + 3] = [0.0, 0.0, 0.0]   # LB hip
        data[0, 3 * 8:3 * 8 + 3] = [2.0, 0.0, 0.0]   # RB hip
        joints = derive_joints(marker_take(data))
        np.testing.assert_array_equal(joints.data[0, 0:3], [1.0, 0.0, 0.0])

    def test_torso_matches_independent_mean(self):
        # oracle: recompute the 4-source mean with a different summation order
        rng = np.random.default_rng(42)
        data = rng.normal(0, 100, size=(6, 63))
        joints = derive_joints(marker_take(data))
        j_idx = JOINT_LABELS.index("J")
        sources = (3, 4, 7, 8)
        for f in range(6):
            for c in range(3):
                acc = 0.0
                for m in reversed(sources):
                    acc += data[f, 3 * m + c]
                assert joints.data[f, 3 * j_idx + c] == pytest.approx(acc / 4, abs=1e-12)

    def test_copied_joints_bit_equal(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0, 500, size=(5, 63))
        joints = derive_joints(marker_take(data))
        # joint C copies L knee (marker 15)
        c_idx = JOINT_LABELS.index("C")
        np.testing.assert_array_equal(
            joints.data[:, 3 * c_idx:3 * c_idx + 3], data[:, 3 * 15:3 * 15 + 3]
        )

    def test_non_conformant_take_rejected(self):
        take = MarkerTake(
            data=np.zeros((3, 9)), frame_rate=120.0,
            markers=("a", "b", "c"),
        )
        with pytest.raises(ValueError, match="21"):
            derive_joints(take)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        d1 = rng.normal(size=(4, 63))
        d2 = rng.normal(size=(4, 63))
        a, b = 2.5, -1.25
        lhs = derive_joints(marker_take(a * d1 + b * d2)).data
        rhs = (a * derive_joints(marker_take(d1)).data
               + b * derive_joints(marker_take(d2)).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_column_order_contract(self):
        # column i belongs to joint i // 3, coordinate i % 3
        data = np.zeros((2, 63))
        data[:, 3 * 15 + 1] = 7.0  # L knee Y drives joint C's Y column only
        joints = derive_joints(marker_take(data))
        c_idx = JOINT_LABELS.index("C")
        hot = np.flatnonzero(joints.data[0] != 0)
        assert list(hot) == [3 * c_idx + 1]
        assert hot[0] // 3 == c_idx and hot[0] % 3 == 1


class TestSkeletonMap:
    def test_default_structure(self):
        m = SkeletonMap()
        sizes = [len(s) for _, s in m.recipes]
        assert sizes.count(1) == 16
        assert sorted(s for s in sizes if s > 1) == [2, 2, 3, 4]

    def test_json_round_trip(self, tmp_path):
        m = SkeletonMap()
        path = tmp_path / "skeleton.json"
        m.to_json(path)
        assert SkeletonMap.from_json(path) == m

    def test_rejects_out_of_range_source(self):
        recipes = list(SkeletonMap().recipes)
        recipes[0] = ("A", (7, 21))
        with pytest.raises(ValueError, match="outside"):
            SkeletonMap(tuple(recipes))


def joint_take(data, frame_rate=120.0, kind=Kind.POSITION):
    return JointTake(data=np.asarray(data, dtype=float), frame_rate=frame_rate, kind=kind)


class TestButterworth:
    def test_unit_dc_gain(self):
        b, a = butter_lowpass(24.0, 120.0)
        assert b.sum() / a.sum() == pytest.approx(1.0, abs=1e-12)

    def test_analytic_magnitude_response(self):
        # Closed-form |H|^2 of the prewarped bilinear design:
        # 1 / (1 + (tan(pi f/fs) / tan(pi fc/fs))^4)
        b, a = butter_lowpass(24.0, 120.0)
        for f in (6.0, 24.0, 48.0):
            expected = 1.0 / (
                1.0 + (math.tan(math.pi * f / 120.0) / math.tan(math.pi * 24.0 / 120.0)) ** 4
            )
            got = filter_magnitude_squared(b, a, f, 120.0)
            assert got == pytest.approx(expected, rel=1e-3)

    def test_half_power_at_cutoff(self):
        b, a = butter_lowpass(24.0, 120.0)
        assert filter_magnitude_squared(b, a, 24.0, 120.0) == pytest.approx(0.5, abs=1e-12)

    def test_cutoff_at_or_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            butter_lowpass(60.0, 120.0)

    def test_zero_phase_preserves_symmetric_peak(self):
        # symmetric pulse in, symmetric pulse out: peak index unchanged
        n = 101
        x = np.exp(-0.5 * ((np.arange(n) - 50) / 4.0) ** 2)
        b, a = butter_lowpass(24.0, 120.0)
        y = zero_phase_filter(x[:, None], b, a)[:, 0]
        assert int(np.argmax(y)) == 50
        np.testing.assert_allclose(y, y[::-1], atol=1e-9)


class TestVelocity:
    def test_constant_position_gives_zero_velocity(self):
        data = np.full((50, 60), 123.4)
        v = velocity(joint_take(data))
        assert v.kind is Kind.VELOCITY
        np.testing.assert_allclose(v.data, 0.0, atol=1e-9)

    def test_linear_ramp_recovers_slope(self):
        fs = 120.0
        slope = 37.5  # mm/s
        t = np.arange(200) / fs
        data = np.tile((slope * t)[:, None], (1, 60))
        v = velocity(joint_take(data, frame_rate=fs))
        interior = v.data[20:-20, :]
        np.testing.assert_allclose(interior, slope, rtol=1e-6)

    @pytest.mark.parametrize(
        "freq,check",
        [(48.0, lambda red: red >= 12.0), (6.0, lambda red: red <= 0.5)],
    )
    def test_attenuation_matches_designed_response(self, freq, check):
        # oracle: the designed filter's squared magnitude at the probe
        # frequency predicts the RMS ratio of filtered vs raw derivative
        fs = 120.0
        t = np.arange(1200) / fs
        data = np.tile((50.0 * np.sin(2 * np.pi * freq * t))[:, None], (1, 60))
        raw = differentiate(data, fs)[100:-100, 0]
        filt = velocity(joint_take(data, frame_rate=fs)).data[100:-100, 0]
        reduction_db = 20.0 * np.log10(
            np.sqrt(np.mean(raw**2)) / np.sqrt(np.mean(filt**2))
        )
        b, a = butter_lowpass(24.0, fs)
        gain = filter_magnitude_squared(b, a, freq, fs)  # applied twice
        predicted_db = 20.0 * np.log10(1.0 / gain)
        assert reduction_db == pytest.approx(predicted_db, abs=0.2)
        assert check(reduction_db)

    def test_time_reversed_ramp_negates(self):
        fs = 120.0
        t = np.arange(120) / fs
        data = np.tile((10.0 * t)[:, None], (1, 60))
        fwd = velocity(joint_take(data, frame_rate=fs)).data
        rev = velocity(joint_take(data[::-1], frame_rate=fs)).data
        np.testing.assert_allclose(rev[20:-20], -fwd[::-1][20:-20], atol=1e-6)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="7 frames"):
            velocity(joint_take(np.zeros((5, 60))))

    def test_low_frame_rate_rejected(self):
        with pytest.raises(ValueError, match="twice the cutoff"):
            velocity(joint_take(np.zeros((50, 60)), frame_rate=48.0))

    def test_velocity_of_velocity_rejected(self):
        v = velocity(joint_take(np.zeros((50, 60))))
        with pytest.raises(ValueError, match="position"):
            velocity(v)


class TestInvariants:
    def test_take_data_immutable(self):
        take = marker_take(np.zeros((2, 63)))
        with pytest.raises(ValueError):
            take.data[0, 0] = 1.0

    def test_marker_take_rejects_nonfinite(self):
        data = np.zeros((3, 63))
        data[1, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            marker_take(data)
