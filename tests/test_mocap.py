import decimal
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

try:
    import resource
except ImportError:   # not on Windows
    resource = None

import numpy as np
import pytest

from movetrait import mocap
from movetrait.mocap import (
    DEFAULT_FRAME_RATE,
    DEFAULT_JOINT_RECIPES,
    MarkerTake,
    TakeFormatError,
    butter_lowpass,
    derive_joints,
    differentiate,
    load_take,
    velocity,
    zero_phase_filter,
    JOINT_LABELS,
    MARKER_LABELS,
    TAKE_HEADER,
    TAKE_WIDTH,
    _parse_fast,
    _scan_take,
    check_take_header,
)
import oracles
from oracles import filter_magnitude_squared


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
        assert take.data.shape == (2, TAKE_WIDTH)

    def test_column_count_mismatch(self, tmp_path):
        path = write_take(tmp_path, [range(62), range(62)])
        with pytest.raises(TakeFormatError, match="column count mismatch"):
            load_take(path)

    def test_nan_cell_rejected(self, tmp_path):
        row = ["1.0"] * 63
        row[10] = "NaN"
        path = write_take(tmp_path, [row, ["1.0"] * 63])
        with pytest.raises(TakeFormatError,
                           match=rf"{path.name}:2: non-finite value 'NaN' in column 11$"):
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
        with pytest.raises(TakeFormatError,
                           match=rf"{path.name}:3: unparseable value 'abc' in column 6$"):
            load_take(path)

    def test_first_bad_line_named(self, tmp_path):
        row = ["1.0"] * 63
        row[5] = "abc"
        path = write_take(tmp_path, [["0.0"] * 63, row, ["1.0"] * 62])
        with pytest.raises(TakeFormatError,
                           match=rf"{path.name}:3: unparseable value 'abc' in column 6$"):
            load_take(path)

    @pytest.mark.parametrize("labels,message", [
        (MARKER_LABELS[:3] + MARKER_LABELS[4:5] + MARKER_LABELS[3:4] + MARKER_LABELS[5:],
         "marker 4 is 'R_shoulder', expected 'L_shoulder'"),
        (MARKER_LABELS[:20], "marker 21 is no label, expected 'R_toe'"),
        (MARKER_LABELS + ("extra",), "marker 22 is 'extra', expected no label"),
        (("a", "b", "c"), "marker 1 is 'a', expected 'LF_head'"),
        (("",), "marker 1 is '', expected 'LF_head'"),
    ], ids=["swapped", "short", "over-long", "custom", "empty-label"])
    @pytest.mark.parametrize("sep", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_header_checked_before_body(self, tmp_path, monkeypatch, labels, message, sep):
        bad = ["1.0"] * 63
        bad[5] = "abc"   # line 3 would fail too, were the body parsed
        path = write_take(tmp_path, [["0.0"] * 63, bad])
        lines = path.read_text().split("\n")
        lines[0] = "\t".join(("#MARKERS",) + labels)
        path.write_bytes(sep.join(lines).encode())
        monkeypatch.setattr(mocap, "_read_decimal", None)   # the body is never reached
        with pytest.raises(TakeFormatError) as info:
            load_take(path)
        assert str(info.value) == (
            f"{path}:1: {message} (a header is a bare #MARKERS or the 21 standard labels "
            f"in order)")

    def test_headers_read_alike(self, tmp_path):
        rows = np.random.default_rng(2).normal(size=(4, 63)).tolist()
        plain = load_take(write_take(tmp_path, rows, name="plain")).data
        assert TAKE_HEADER == "#MARKERS\t" + "\t".join(MARKER_LABELS)
        for name, first in [("bare", "#MARKERS\n"), ("none", "")]:
            path = write_take(tmp_path, rows, name=name, header=False)
            path.write_text(first + path.read_text())
            np.testing.assert_array_equal(load_take(path).data, plain)

    def test_take_width_enforced(self):
        with pytest.raises(ValueError, match=r"marker data must be frames x 63, got shape \(3, 9\)"):
            MarkerTake(data=np.zeros((3, 9)), frame_rate=120.0)


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
_FORMS = ["-0", "+1", "1.", ".5", "1E5", "-1.5e-3", "2e+2", "007", "-0.0e0"]
_FORMS_ROW = (_FORMS * 7)[:63]


def _rows_with(count, bad=None, seed=3):
    """``count`` rows of random ``%.17g`` values; ``bad`` replaces the last one."""
    values = np.random.default_rng(seed).normal(0, 500, size=(count, 63))
    rows = [["%.17g" % v for v in row] for row in values.tolist()]
    if bad is not None:
        rows[-1] = bad
    return rows


# (id, file bytes, outcome): "vector" when the vectorized reader's result is
# taken, "scan" when only the line scan accepts the file, "error" when it is
# refused
PARSE_CASES = [
    ("plain", _tsv(_ONES), "vector"),
    ("crlf", _tsv(_ONES, sep="\r\n", end="\r\n"), "scan"),
    ("blank-lines", b"\n\n".join(_tsv(_ONES).split(b"\n")) + b"\n\n", "scan"),
    ("no-final-newline", _tsv(_ONES, end=""), "vector"),
    ("crlf-no-final-newline", _tsv(_ONES, sep="\r\n", end=""), "scan"),
    ("rows-257-no-final-newline", _tsv(_rows_with(257), end=""), "vector"),
    ("no-header", _tsv(_ONES, header=False), "vector"),
    ("custom-header", b"#MARKERS\ta\tb\n" + _tsv(_ONES, header=False), "error"),
    ("header-not-utf8", b"#MARKERS\t\xff\n" + _tsv(_ONES, header=False), "error"),
    ("marker-word-prefix", b"#MARKERSX\n" + _tsv(_ONES, header=False), "error"),
    ("bare-header", b"#MARKERS\n" + _tsv(_ONES, header=False), "vector"),
    ("leading-spaces", _tsv([[" 1.5"] * 63, ["  -2"] * 63]), "scan"),
    ("random-17g", _tsv(_random_rows(lambda v: "%.17g" % v, 1)), "vector"),
    ("random-repr", _tsv(_random_rows(repr, 2)), "vector"),
    ("forms", _tsv([_FORMS_ROW, _FORMS_ROW[::-1]]), "vector"),
    ("long-mantissa", _tsv([["0.000000000000000000000000012345"] * 63,
                            ["123456789012345678901234567890"] * 63]), "vector"),
    ("rows-257", _tsv(_rows_with(257)), "vector"),
    ("rows-513", _tsv(_rows_with(513)), "vector"),
    ("underscore", _tsv([["1_000"] * 63, ["2"] * 63]), "error"),
    ("non-ascii-digit", _tsv([["1"] * 63, ["2.5\uff11"] * 63]), "error"),
    ("no-break-space", _tsv([["\xa01.5"] * 63, ["2\xa0"] * 63]), "scan"),
    ("lone-cr", _tsv(_ONES, sep="\r", end="\r"), "scan"),
    ("lone-cr-no-final-newline", _tsv(_ONES, sep="\r", end=""), "scan"),
    ("cr-in-header", (TAKE_HEADER + "\r").encode() + _tsv(_ONES, header=False), "scan"),
    ("cr-in-bare-header", b"#MARKERS\r" + _tsv(_ONES, header=False), "scan"),
    ("cr-in-custom-header", b"#MARKERS\ta\tb\r" + _tsv(_ONES, header=False), "error"),
    ("cr-splits-header", _tsv(_ONES).replace(b"\tRF_head", b"\rRF_head", 1), "error"),
    ("trailing-tab", _tsv([["1"] * 63 + [""]] * 2), "error"),
    ("empty-field", _tsv([["1"] * 30 + [""] + ["1"] * 32] * 2), "error"),
    ("whitespace-line", _tsv(_ONES[:1] + [[" "]] + _ONES[:1]), "error"),
    ("hash-line-mid", _tsv(_ONES[:1] + [["# note"]] + _ONES[:1]), "error"),
    ("header-on-line-2", b"\n" + _tsv(_ONES), "error"),
    ("nan", _tsv([["nan"] * 63, ["1"] * 63]), "error"),
    ("inf", _tsv([["1"] * 63, ["1"] * 62 + ["-inf"]]), "error"),
    ("overflow", _tsv([["1"] * 63, ["1"] * 62 + ["1e999"]]), "error"),
    ("one-row", _tsv(_ONES[:1]), "error"),
    ("empty", b"", "error"),
    ("header-only", _tsv([]), "error"),
    ("blank-only", b"\n\r\n\n", "error"),
    ("short-row", _tsv(_ONES[:1] + [["1.5"] * 62]), "error"),
    ("wrong-width", _tsv([["1.5"] * 62] * 2), "error"),
    ("uneven-rows", _tsv([["1.5"] * 62, ["1.5"] * 64]), "error"),
    ("space-for-tab", _tsv([["1.5"] * 63, ["1.5"] * 61 + ["1.5 1.5"]]), "error"),
    ("unparseable", _tsv(_ONES[:1] + [["1.5"] * 62 + ["1.5.1"]]), "error"),
    ("bom", b"\xef\xbb\xbf" + _tsv(_ONES), "error"),
    ("not-utf8", _tsv(_ONES) + b"1\xff\n", "error"),
    ("bad-row-257", _tsv(_rows_with(257, bad=["1.5"] * 62 + ["1.5.1"])), "error"),
    ("short-row-513", _tsv(_rows_with(513, bad=["1.5"] * 62)), "error"),
    ("nan-row-513", _tsv(_rows_with(513, bad=["1.5"] * 62 + ["nan"])), "error"),
] + [
    (f"field-{name}", _tsv([["1.5"] * 63, ["1.5"] * 62 + [field]]), "error")
    for name, field in [("two-exponents", "1e5e5"), ("dot-after-exponent", "1e5.5"),
                        ("inner-sign", "1-2"), ("double-sign", "+-1"), ("lone-sign", "-"),
                        ("lone-dot", "."), ("sign-dot", "-."), ("bare-exponent", "e5"),
                        ("dot-exponent", ".e5"), ("no-exponent-digits", "1e"),
                        ("signed-no-exponent-digits", "1e+"), ("hex", "0x10")]
]


class TestParsePaths:
    """load_take against the line scan alone, on the same bytes."""

    @pytest.mark.filterwarnings("error")  # neither parser warns
    @pytest.mark.parametrize("raw,outcome", [c[1:] for c in PARSE_CASES],
                             ids=[c[0] for c in PARSE_CASES])
    def test_matches_line_scan(self, tmp_path, monkeypatch, raw, outcome):
        read = []
        reader = mocap._read_decimal
        monkeypatch.setattr(mocap, "_read_decimal", lambda *a: read.append(reader(*a)) or read[-1])
        fast = _parse_fast(raw)
        if fast is None:
            assert outcome in ("scan", "error")
        else:
            assert outcome == "vector" and fast is read[-1]
        path = tmp_path / "take.tsv"
        path.write_bytes(raw)
        try:   # extract's header check names what the scan names on line 1
            check_take_header(path)
            header_fault = None
        except TakeFormatError as exc:
            header_fault = str(exc)
        try:
            data = _scan_take(path, raw)
        except TakeFormatError as exc:
            assert outcome == "error"
            with pytest.raises(TakeFormatError) as got:
                load_take(path, {"frame_rate": 120.0})
            assert str(got.value) == str(exc)
            assert header_fault == (str(exc) if f"{path}:1: marker" in str(exc) else None)
            return
        assert outcome != "error" and header_fault is None
        take = load_take(path, {"frame_rate": 120.0})
        assert take.data.shape == data.shape
        assert take.data.tobytes() == data.tobytes()

    def test_header_check_reads_a_bounded_head(self, tmp_path, monkeypatch):
        read = []
        real_open = open

        def counting_open(*args):
            fh = real_open(*args)
            real_read = fh.read
            fh.read = lambda *a: read.append(real_read(*a)) or read[-1]
            return fh

        monkeypatch.setattr(mocap, "open", counting_open, raising=False)
        path = tmp_path / "take.tsv"
        body = _tsv(_rows_with(257), header=False)
        for head in (TAKE_HEADER.encode() + b"\r\n", b"#MARKERS\n", b""):
            read.clear()
            path.write_bytes(head + body)
            check_take_header(path)
            assert sum(map(len, read)) == len(TAKE_HEADER) + 3

    def test_raw_bytes_used_instead_of_reading(self, tmp_path):
        raw = _tsv(_ONES)
        take = load_take(tmp_path / "never_written.tsv", {"frame_rate": 120.0}, raw=raw)
        assert take.frames == 3

    def test_narrow_long_double_takes_scan(self, tmp_path, monkeypatch):
        raw = _tsv(_random_rows(repr, 4))
        expected = _parse_fast(raw)
        monkeypatch.setattr(mocap, "_EXACT_LONGDOUBLE", False)
        monkeypatch.setattr(mocap, "_read_decimal", None)   # must not be called
        assert _parse_fast(raw) is None
        take = load_take(tmp_path / "take.tsv", {"frame_rate": 120.0}, raw=raw)
        assert take.data.tobytes() == expected.tobytes()


def _near_midpoints(rng, count):
    """19-digit decimals next to (and some on) float64 midpoints, |E| <= 27.

    Rounding such a decimal to 64 bits often lands exactly on the midpoint,
    where a second rounding to float64 would go the wrong way.
    """
    lo = np.abs(rng.normal(size=count)) * 10.0 ** rng.integers(-8, 40, size=count)
    hi = np.nextafter(lo, np.inf)
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        for a, b in zip(lo.tolist(), hi.tolist()):
            mid = (decimal.Decimal(a) + decimal.Decimal(b)) / 2
            out.append("%.18e" % mid)
    return out


def _oracle_fields(seed, per_format=17_000):
    """Seeded fields in six formats plus crafted edge cases, all in the reader's grammar."""
    rng = np.random.default_rng(seed)
    formats = [lambda v: "%.17g" % v, repr, lambda v: "%.6f" % v, lambda v: "%.3f" % v,
               lambda v: "%.10e" % v, lambda v: "%.15g" % v]
    fields = []
    for fmt in formats:
        values = rng.normal(size=per_format) * 10.0 ** rng.integers(-30, 30, size=per_format)
        fields += [fmt(v) for v in values.tolist()]
    fields += _near_midpoints(rng, 2000)
    fields += [
        "9007199254740993", "9007199254740995", "-9007199254740993", "9007199254740993e0",
        "1e27", "1e-27", "-1.5e27", "9999999999999999999e-27", "123456789e+27",
        "1e28", "1e-28", "1e308", "-1.7976931348623157e308", "4e-320", "5e-324",
        "18446744073709551615", "18446744073709551616", "18446744073709551617",
        "99999999999999999999", "1844674407370955161.6", "10000000000000000000",
        "-0", "+1", "1.", ".5", "1E5", "1e00000001", "0e-999", "-0.000",
        "0.000000000000000000000000000000000123", "1" + "0" * 30,
    ]
    return fields


def test_reader_matches_float_bit_for_bit():
    fields = _oracle_fields(seed=7)
    fields += ["0"] * (-len(fields) % 63)
    rows = [fields[i:i + 63] for i in range(0, len(fields), 63)]
    assert len(fields) >= 100_000
    body = ("\n".join("\t".join(row) for row in rows) + "\n").encode()
    got = mocap._read_decimal(body, 63)
    expected = np.array([[float(f) for f in row] for row in rows])
    assert got is not None
    bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert not len(bad), [(fields[i], got.flat[i], expected.flat[i]) for i in bad[:5]]


def _oracle_body(lines, width, seed, end=b"\n", bad=None):
    """``lines`` rows of ``width`` fields drawn from ``_oracle_fields``; ``bad``
    replaces the field in the middle of the body."""
    fields = _oracle_fields(seed, per_format=lines * width // 6 + 1)
    picks = np.random.default_rng(seed).permutation(len(fields))[:lines * width].tolist()
    cells = [fields[i] for i in picks]
    if bad is not None:
        cells[len(cells) // 2] = bad
    rows = ["\t".join(cells[r * width:(r + 1) * width]) for r in range(lines)]
    return "\n".join(rows).encode() + end


# (id, builder of the (body, width, accepted) triples one thread parses in
# turn); lines counts of 1, 255, 256, 257, 511 and 512 end on blocks of 1,
# 255, 256, 1, 255 and 256 lines
READER_CASES = [
    ("widths-63-3-63", lambda: [(_oracle_body(300, 63, 1), 63, True),
                                (_oracle_body(300, 3, 2), 3, True),
                                (_oracle_body(300, 63, 3), 63, True)]),
    *[(f"lines-{k}", lambda k=k: [(_oracle_body(k, 63, k), 63, True)])
      for k in (1, 255, 256, 257, 511, 512)],
    ("no-final-newline", lambda: [(_oracle_body(257, 63, 4, end=b""), 63, True)]),
    ("memoryview", lambda: [(memoryview(b"#MARKERS\n" + _oracle_body(300, 63, 5))[9:], 63, True)]),
    ("rejected-around-accepted", lambda: [(_oracle_body(300, 63, 6, bad="1.5.1"), 63, False),
                                          (_oracle_body(300, 63, 7), 63, True),
                                          (_oracle_body(300, 63, 8, bad="1-2"), 63, False),
                                          (_oracle_body(300, 63, 9), 63, True)]),
]


@pytest.mark.parametrize("build", [c[1] for c in READER_CASES], ids=[c[0] for c in READER_CASES])
def test_reader_matches_allocating_oracle(build):
    """The workspace reader against the allocating one it replaced, bit for
    bit, with each case's bodies parsed in turn on one new thread, so that
    every parse after the first reuses (or grows) that thread's workspace."""
    bodies = build()
    with ThreadPoolExecutor(1) as pool:
        got = pool.submit(lambda: [mocap._read_decimal(b, w) for b, w, _ in bodies]).result(60)
    for (body, width, accepted), result in zip(bodies, got):
        expected = oracles.read_decimal(bytes(body), width)
        assert (expected is not None) == accepted
        if not accepted:
            assert result is None
            continue
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()


def test_workspace_fits_a_short_take():
    """A 2-line take gets room for its own 2 lines of fields, not for a full
    256-line block of its width."""
    body = ("\n".join(["\t".join(["1.5"] * 3000)] * 2) + "\n").encode()

    def fields_held():
        assert mocap._read_decimal(body, 3000).shape == (2, 3000)
        return mocap._LOCAL.workspace.nfields

    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(fields_held).result(60) == 2 * 3000


def test_threads_keep_their_own_workspace():
    """Two threads parse takes of different widths at once, round after
    round; each result equals the serial one bit for bit."""
    bodies = [(_oracle_body(300 + 61 * i, width, 20 + i), width)
              for i, width in enumerate((63, 3, 63, 12))]
    serial = [mocap._read_decimal(b, w) for b, w in bodies]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            for _ in range(6):
                got = list(pool.map(lambda bw: mocap._read_decimal(*bw), bodies, timeout=60))
                for g, s in zip(got, serial):
                    assert g.tobytes() == s.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage")
def test_second_parse_on_a_worker_faults_in_no_block_pages():
    """After one warm-up parse on a fresh worker thread, a second parse of the
    same 600 x 63 ``%.17g`` body reuses the thread's workspace: it takes
    fewer than 100 minor faults. The allocating reader took about 1200."""
    values = np.random.default_rng(17).normal(0, 500, size=(600, 63))
    body = ("\n".join("\t".join("%.17g" % v for v in row) for row in values.tolist())
            + "\n").encode()

    def second_parse_faults():
        mocap._read_decimal(body, 63)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        mocap._read_decimal(body, 63)
        return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

    with ThreadPoolExecutor(1) as pool:
        faults = pool.submit(second_parse_faults).result(60)
    assert faults < 100


@pytest.mark.parametrize("lines", [1, 4, 5, 300])
def test_comma_separator_matches_tab(lines):
    """A body with commas between fields, read in 4-line blocks, gives the
    tab body's values bit for bit; each separator is a foreign byte in the
    other's body."""
    body = _oracle_body(lines, 63, 30 + lines)
    tabbed = mocap._read_decimal(body, 63)
    commas = body.replace(b"\t", b",")
    got = mocap._read_decimal(commas, 63, ",", 4)
    assert got.shape == tabbed.shape == (lines, 63)
    assert got.tobytes() == tabbed.tobytes()
    assert mocap._read_decimal(commas, 63) is None
    assert mocap._read_decimal(body, 63, ",", 4) is None


def test_takes_parse_in_256_line_blocks():
    """A 600-line take parses in blocks of 256, 256 and 88 lines, into the
    thread's workspace of 6 745 088 bytes (about 6.4 MiB), as before feature
    CSVs shared the reader."""
    values = np.random.default_rng(17).normal(0, 500, size=(600, 63))
    body = ("\n".join("\t".join("%.17g" % v for v in row) for row in values.tolist())
            + "\n").encode()
    blocks = []
    read_block = mocap._read_block

    def parse():
        mocap._read_decimal(body, 63)
        ws = mocap._LOCAL.workspace
        return ws.nfields, len(ws.buf.base)

    def spy(ws, size, nlines, *rest):
        blocks.append(nlines)
        return read_block(ws, size, nlines, *rest)

    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(1) as pool:
        patch.setattr(mocap, "_read_block", spy)
        assert pool.submit(parse).result(60) == (256 * 63, 6_745_088)
    assert blocks == [256, 256, 88]


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
        assert joints.shape == (4, 60)
        expected = np.tile(p, (4, 20))
        np.testing.assert_array_equal(joints, expected)

    def test_root_is_hip_midpoint(self):
        data = np.zeros((2, 63))
        data[0, 3 * 7:3 * 7 + 3] = [0.0, 0.0, 0.0]   # LB hip
        data[0, 3 * 8:3 * 8 + 3] = [2.0, 0.0, 0.0]   # RB hip
        joints = derive_joints(marker_take(data))
        np.testing.assert_array_equal(joints[0, 0:3], [1.0, 0.0, 0.0])

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
                assert joints[f, 3 * j_idx + c] == pytest.approx(acc / 4, abs=1e-12)

    def test_copied_joints_bit_equal(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0, 500, size=(5, 63))
        joints = derive_joints(marker_take(data))
        # joint C copies L knee (marker 15)
        c_idx = JOINT_LABELS.index("C")
        np.testing.assert_array_equal(
            joints[:, 3 * c_idx:3 * c_idx + 3], data[:, 3 * 15:3 * 15 + 3]
        )

    def test_linearity(self):
        rng = np.random.default_rng(7)
        d1 = rng.normal(size=(4, 63))
        d2 = rng.normal(size=(4, 63))
        a, b = 2.5, -1.25
        lhs = derive_joints(marker_take(a * d1 + b * d2))
        rhs = a * derive_joints(marker_take(d1)) + b * derive_joints(marker_take(d2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_column_order_contract(self):
        # column i belongs to joint i // 3, coordinate i % 3
        data = np.zeros((2, 63))
        data[:, 3 * 15 + 1] = 7.0  # L knee Y drives joint C's Y column only
        joints = derive_joints(marker_take(data))
        c_idx = JOINT_LABELS.index("C")
        hot = np.flatnonzero(joints[0] != 0)
        assert list(hot) == [3 * c_idx + 1]
        assert hot[0] // 3 == c_idx and hot[0] % 3 == 1


class TestSkeletonMap:
    def test_default_structure(self):
        assert len(DEFAULT_JOINT_RECIPES) == 20
        for _, sources in DEFAULT_JOINT_RECIPES:
            assert sources
            assert all(0 <= s <= 20 for s in sources)
        sizes = [len(s) for _, s in DEFAULT_JOINT_RECIPES]
        assert sizes.count(1) == 16
        assert sorted(s for s in sizes if s > 1) == [2, 2, 3, 4]


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


class TestZeroPhaseOracle:
    """``zero_phase_filter`` against ``scipy.signal.filtfilt``, which it replaces."""

    @pytest.mark.parametrize("fs", [60.0, 100.0, 120.0, 240.0, 1000.0])
    @pytest.mark.parametrize("n", [7, 8, 9, 50, 600, 4200])
    def test_matches_filtfilt(self, fs, n):
        signal = pytest.importorskip("scipy.signal")
        b, a = butter_lowpass(24.0, fs)
        rng = np.random.default_rng(int(fs) * 10_000 + n)
        # joint-velocity-like columns: a random walk with offsets, in mm/s
        x = np.cumsum(rng.normal(scale=50.0, size=(n, 60)), axis=0) + rng.uniform(-500, 500, 60)
        ref = signal.filtfilt(b, a, x, axis=0, padlen=min(9, n - 2))
        got = zero_phase_filter(x, b, a)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # each column is filtered on its own: the layout changes no bit
        for col in (0, 31, 59):
            alone = zero_phase_filter(x[:, col:col + 1], b, a)
            assert np.array_equal(alone[:, 0], got[:, col])

    def test_rejects_other_orders_and_short_input(self):
        b, a = butter_lowpass(24.0, 120.0)
        with pytest.raises(ValueError, match="2nd-order"):
            zero_phase_filter(np.zeros((20, 2)), np.r_[b, 0.0], np.r_[a, 0.0])
        with pytest.raises(ValueError, match="at least 2 samples"):
            zero_phase_filter(np.zeros((1, 2)), b, a)


class TestVelocity:
    def test_constant_position_gives_zero_velocity(self):
        data = np.full((50, 60), 123.4)
        v = velocity(data, 120.0)
        np.testing.assert_allclose(v, 0.0, atol=1e-9)

    def test_linear_ramp_recovers_slope(self):
        fs = 120.0
        slope = 37.5  # mm/s
        t = np.arange(200) / fs
        data = np.tile((slope * t)[:, None], (1, 60))
        v = velocity(data, fs)
        interior = v[20:-20, :]
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
        filt = velocity(data, fs)[100:-100, 0]
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
        fwd = velocity(data, fs)
        rev = velocity(data[::-1], fs)
        np.testing.assert_allclose(rev[20:-20], -fwd[::-1][20:-20], atol=1e-6)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="7 frames"):
            velocity(np.zeros((5, 60)), 120.0)

    def test_low_frame_rate_rejected(self):
        with pytest.raises(ValueError, match="twice the cutoff"):
            velocity(np.zeros((50, 60)), 48.0)


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
