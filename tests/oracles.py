"""Test oracles that no pipeline stage calls: they check the package's
outputs from the other direction."""
import io
import json
import math
from pathlib import Path

import numpy as np

from movetrait.features import SIGMA_DEFAULT, lower_triangle_indices
from movetrait.mocap import (
    _BLOCK_LINES, _CLASS, _DIVISOR, _EXP, _KEEP, _MINUS, _MULTIPLIER, _NL, _PAD, _PLUS,
    MARKER_LABELS,
)
from movetrait.regression import _HYPER_MAX, _HYPER_MIN, Evidence, LinearModel
from movetrait.synth import iter_takes, sample_traits, write_trait_table


def correntropy(x: np.ndarray, y: np.ndarray, sigma: float = SIGMA_DEFAULT) -> float:
    """Gaussian-kernel similarity of two equal-length series, in (0, 1].

    The squared distance is normalized by the squared series length T so
    that takes of different durations remain comparable.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"series length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.size < 1:
        raise ValueError("series must have at least one sample")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    t = x.size
    d = x - y
    return float(np.exp(-(d @ d) / (2.0 * sigma * sigma * t * t)))


def unvectorize_lower(vec: np.ndarray, dim: int) -> np.ndarray:
    """Rebuild the symmetric matrix (unit diagonal) from its triangle vector."""
    vec = np.asarray(vec, dtype=float)
    expected = dim * (dim - 1) // 2
    if vec.shape != (expected,):
        raise ValueError(f"expected {expected} entries for dim {dim}, got {vec.shape}")
    out = np.eye(dim, dtype=float)
    rows, cols = lower_triangle_indices(dim)
    out[rows, cols] = vec
    out[cols, rows] = vec
    return out


def filter_magnitude_squared(
    b: np.ndarray, a: np.ndarray, freq_hz: float, frame_rate: float
) -> float:
    """Squared magnitude |H(e^{jw})|^2 of the filter at one frequency."""
    z = np.exp(-2j * math.pi * freq_hz / frame_rate)
    h = np.polyval(b[::-1], z) / np.polyval(a[::-1], z)
    return float(abs(h) ** 2)


def write_dataset_serial(spec, out_dir) -> None:
    """``synth.write_dataset`` as one serial loop in this process: the byte
    oracle for the pooled writer."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traits = sample_traits(spec)
    header = "#MARKERS\t" + "\t".join(MARKER_LABELS)
    for pid, sid, data in iter_takes(spec, traits):
        stem = f"{pid}_{sid}"
        row_format = "\t".join(["%.17g"] * data.shape[1])
        rows = [header]
        rows.extend(row_format % tuple(frame) for frame in data.tolist())
        (out_dir / f"{stem}.tsv").write_text("\n".join(rows) + "\n")
        sidecar = {
            "frame_rate": spec.frame_rate,
            "participant_id": pid,
            "stimulus_id": sid,
        }
        (out_dir / f"{stem}.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        )
    write_trait_table(traits, out_dir / "traits.csv")
    spec.to_json(out_dir / "synth_spec.json")


def _swar8_alloc(lanes: np.ndarray) -> np.ndarray:
    """Eight ASCII digits per little-endian uint64 lane to their integer value.

    The first byte is the most significant digit; zero bytes read as 0.
    """
    v = lanes & 0x0F0F0F0F0F0F0F0F
    v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
    v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
    return (v * 10000 + (v >> 32)) & 0xFFFFFFFF


def _windows_alloc(buf: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` before each offset in ``ends``.

    Returned as ``width // 8`` rows of little-endian uint64 lanes, one
    column per offset; lane 0 holds the first 8 bytes.
    """
    rows = np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))[ends - width]
    return np.ascontiguousarray(rows.view("<u8").reshape(len(ends), width // 8).T)


_TABBED = _CLASS["\t"]   # byte classes with tabs between fields


def read_block(buf: np.ndarray, nlines: int, width: int, out: np.ndarray) -> bool:
    """Parse ``nlines`` lines from ``buf[_PAD:]`` into ``out``; False on any grammar breach."""
    block = buf[_PAD:]
    n = nlines * width
    tok = np.flatnonzero((block - 48) >= 10)   # every byte that is not a digit
    cls = np.take(_TABBED, np.take(block, tok))
    if not cls.all():
        return False
    sep = cls <= _NL
    fe = np.compress(sep, tok)                 # field ends
    # the block holds nlines newlines, so this gives every line width fields
    if len(fe) != n or not (np.take(block, fe[width - 1::width]) == 10).all():
        return False
    fs = np.empty(n, np.intp)                  # field starts
    fs[0] = 0
    np.add(fe[:-1], 1, out=fs[1:])

    mi = np.flatnonzero(~sep)                  # dots, exponent marks and signs
    mcls = np.take(cls, mi)
    de = mcls < _PLUS
    field = np.compress(de, mi) - np.flatnonzero(de)   # separators before the mark
    at = np.take(tok, np.compress(de, mi))
    is_exp = np.compress(de, mcls) == _EXP
    key = 2 * field + is_exp
    if (key[1:] <= key[:-1]).any():
        return False   # two dots or two exponent marks in a field, or a dot after one
    dot = np.full(n, -1, np.intp)
    exp = np.full(n, -1, np.intp)
    dot[field[~is_exp]] = at[~is_exp]
    exp[field[is_exp]] = at[is_exp]
    signs = len(mi) - len(field)

    lead = np.take(_TABBED, np.take(block, fs))
    neg = lead == _MINUS
    signed = neg | (lead == _PLUS)
    has_exp = exp >= 0
    has_dot = dot >= 0
    me = np.where(has_exp, exp, fe)            # mantissa ends
    digits = me - fs - signed - has_dot
    if (digits < 1).any():
        return False
    frac = np.where(has_dot, me - dot - 1, 0)

    # the mantissa's last 24 bytes, with the bytes left of the dot moved one
    # place right over it and the bytes left of the first digit cleared
    w = _windows_alloc(buf, me + _PAD, 32)
    a = w[1:]
    b = (a << 8) | (w[:-1] >> 56)
    from_a = np.take(_KEEP, np.where(has_dot, np.maximum(24 - frac, 0), 0), axis=1)
    lanes = b ^ ((a ^ b) & from_a)
    lanes &= np.take(_KEEP, np.maximum(24 - digits, 0), axis=1)
    m = _swar8_alloc(lanes)
    slow = (digits > 24) | (m[0] >= 1000)      # mantissa may not fit in 64 bits
    mant = m[0] * 10**16 + m[1] * 10**8 + m[2]

    e10 = -frac
    ef = np.flatnonzero(has_exp)
    if len(ef):
        after = np.take(exp, ef) + 1
        acls = np.take(_TABBED, np.take(block, after))
        esigned = acls >= _PLUS
        signs -= np.count_nonzero(esigned)
        elen = np.take(fe, ef) - after - esigned
        if (elen < 1).any():
            return False
        ev = _swar8_alloc(_windows_alloc(buf, np.take(fe, ef) + _PAD, 8)[0]
                          & np.take(_KEEP[2], np.maximum(24 - elen, 16))).astype(np.intp)
        e10[ef] += np.where(acls == _MINUS, -ev, ev)
        slow[ef[elen > 8]] = True
    if signs != np.count_nonzero(signed):
        return False   # a sign neither first in its field nor right after the exponent mark
    slow |= np.abs(e10) > 27

    scale = np.clip(e10 + 27, 0, 54)
    q = mant.astype(np.longdouble)
    q /= np.take(_DIVISOR, scale)
    if (e10 > 0).any():
        q *= np.take(_MULTIPLIER, scale)
    vals = q.astype(np.float64)
    rem = q - vals
    twice = q + rem
    slow |= (rem != 0) & (twice.astype(np.float64) == twice)   # q is a float64 midpoint
    vals *= 1 - 2 * neg.view(np.int8)          # "-0" reads as -0.0
    for i in np.flatnonzero(slow):
        vals[i] = float(block[fs[i]:fe[i]].tobytes())
    out[...] = vals.reshape(nlines, width)
    return True


def read_decimal(body: bytes, width: int) -> np.ndarray | None:
    """The allocating take reader that ``mocap._read_decimal`` replaced: the
    bit-for-bit oracle for the workspace reader. It holds a ``raw == 10``
    mask of the whole body and fresh block temporaries for every block."""
    if not body.endswith(b"\n"):
        body += b"\n"   # a last line without its newline reads like one with it
    raw = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(raw == 10) + 1
    out = np.empty((len(ends), width))
    start = 0
    for first in range(0, len(ends), _BLOCK_LINES):
        last = min(first + _BLOCK_LINES, len(ends))
        end = ends[last - 1]
        buf = np.empty(end - start + _PAD, np.uint8)
        buf[:_PAD] = 48
        buf[_PAD:] = raw[start:end]
        if not read_block(buf, last - first, width, out[first:last]):
            return None
        start = end
    return out


def load_feature_csv_text(raw: bytes) -> np.ndarray:
    """The feature CSV parse that ``features.load_feature_matrix`` replaced:
    ``np.loadtxt`` on the bytes as a text-mode UTF-8 file, where ``#`` starts
    a comment. The bit-for-bit oracle for every file without a ``#``."""
    return np.loadtxt(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"), delimiter=",", ndmin=2)


def save_feature_csv_text(values: np.ndarray) -> bytes:
    """The feature CSV write that ``features.save_feature_matrix`` replaced:
    the bytes ``np.savetxt(fmt="%.17g", delimiter=",")`` writes for a 2-D
    array."""
    out = io.BytesIO()
    np.savetxt(out, values, fmt="%.17g", delimiter=",")
    return out.getvalue()


def fit_bayes_ridge_every_step(factor, y, tol=1e-3, max_iter=300) -> Evidence:
    """The evidence loop that forms the d-dim beta on every step, as
    ``regression.fit_bayes_ridge`` did before it skipped the steps that
    cannot converge: its bit-for-bit oracle."""
    y = np.asarray(y, dtype=float).ravel()
    n = factor.shape[0]
    s, vh = factor.s, factor.vh
    y_mean = float(y.mean())
    yc = y - y_mean
    eig = s**2
    uty = factor.u.T @ yc
    suty = s * uty
    rss_outside = float(yc @ yc - uty @ uty)
    var_y = float(yc @ yc) / n
    alpha = min(max(1.0 / max(var_y, _HYPER_MIN), _HYPER_MIN), _HYPER_MAX)
    lam = 1.0

    denom = eig + lam / alpha
    coords = suty / denom
    beta = vh.T @ coords
    converged = False
    iterations = 1
    for it in range(2, max_iter + 1):
        gamma = (eig / denom).sum()
        rss = ((uty - s * coords) ** 2).sum() + rss_outside
        bnorm = coords @ coords
        if bnorm > 0:
            lam = float(min(max(gamma / bnorm, _HYPER_MIN), _HYPER_MAX))
        if rss > 0:
            alpha = float(min(max((n - gamma) / rss, _HYPER_MIN), _HYPER_MAX))
        denom = eig + lam / alpha
        coords = suty / denom
        new_beta = vh.T @ coords
        if not np.isfinite(new_beta).all():
            raise FloatingPointError("non-finite intermediate in evidence maximization")
        iterations = it
        if np.abs(new_beta - beta).max() < tol:
            beta = new_beta
            converged = True
            break
        beta = new_beta
    return Evidence(
        model=LinearModel(kind="bayes_ridge", weights=beta,
                          intercept=float(y_mean - factor.mean @ beta)),
        alpha=alpha, lambda_=lam, gamma=float((eig / denom).sum()), converged=converged,
        iterations=iterations)


def predict_centered(x_mean: np.ndarray, weights: np.ndarray, y_mean: float,
                     X: np.ndarray) -> np.ndarray:
    """The linear predictor before the training means were folded into the
    intercept, ``(X - x_mean) @ weights + y_mean``: the oracle for
    ``regression.predict_means`` on a fitted model."""
    return (np.atleast_2d(X) - x_mean) @ weights + y_mean
