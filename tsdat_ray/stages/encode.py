"""Delta-of-delta timestamp + Gorilla XOR value encoding for tier partitions.

Implements the compression scheme of Facebook's Gorilla TSDB (Pelkonen et al.,
VLDB 2015, public paper) over Arrow columns:

* timestamps — delta-of-delta with the paper's variable-length buckets
  ('0' | '10'+7b | '110'+9b | '1110'+12b | '1111'+64b), two's-complement
  payloads, µs resolution;
* values — XOR with the previous value; '0' for identical, else
  '1' + '1' + 6-bit leading-zero count + 6-bit significant-bit length +
  significant bits.  (The encoder always emits an explicit window — a valid
  choice in the Gorilla format that keeps encoding fully vectorized; the
  decoder also understands the '1'+'0' reuse-window form.)

The ENCODER is fully vectorized numpy (bit-matrix + packbits — no per-value
Python); the decoder is a straightforward bit reader used for verification
and selective reads.

Pipeline integration: ``encode_group`` turns the rows of one (key, window)
into one blob row, so a partition's running state (previous timestamp/value)
lives inside one task (SURVEY.md §2.4).  The flagship runs it per (source,
day) in the task that rolls the day up; ``encode_tier`` per group of a tier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

US = 1_000_000


# --------------------------------------------------------------------------- #
# vectorized bit helpers
# --------------------------------------------------------------------------- #

def _high_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit (0..63); -1 for zero. Vectorized."""
    x = x.astype(np.uint64)
    r = np.full(x.shape, -1, dtype=np.int64)
    cur = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = cur >= (np.uint64(1) << np.uint64(shift))
        r = np.where(big, r + shift, r)
        cur = np.where(big, cur >> np.uint64(shift), cur)
    return r + (x > 0)


def clz64(x: np.ndarray) -> np.ndarray:
    return np.where(x == 0, 64, 63 - _high_bit(x))


def ctz64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    low = x & (~x + np.uint64(1))
    return np.where(x == 0, 64, _high_bit(low))


def _bits_msb_first(vals: np.ndarray, width: int) -> np.ndarray:
    """(n, width) bool matrix of the low `width` bits of vals, MSB first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((vals[:, None].astype(np.uint64) >> shifts[None, :]) & np.uint64(1)).astype(bool)


def _pack(bitmat: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate the first lengths[i] bits of each row; pack to bytes."""
    n = len(lengths)
    if n == 0:
        return b""
    total = int(lengths.sum())
    rows = np.repeat(np.arange(n), lengths)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offs[1:])
    within = np.arange(total) - np.repeat(offs[:-1], lengths)
    flat = bitmat[rows, within]
    return np.packbits(flat).tobytes()


class _BitReader:
    def __init__(self, buf: bytes):
        self.bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
        self.pos = 0

    def read(self, k: int) -> int:
        v = 0
        for b in self.bits[self.pos : self.pos + k]:
            v = (v << 1) | int(b)
        self.pos += k
        return v


# --------------------------------------------------------------------------- #
# timestamps: delta-of-delta
# --------------------------------------------------------------------------- #

_TS_BUCKETS = (  # (payload bits, prefix bits as tuple)
    (7, (1, 0)),
    (9, (1, 1, 0)),
    (12, (1, 1, 1, 0)),
    (64, (1, 1, 1, 1)),
)


def encode_timestamps(ts: np.ndarray) -> bytes:
    """ts: int64 µs, sorted. Header: n:uint32, ts[0]:int64, delta0:int64."""
    ts = np.asarray(ts, dtype=np.int64)
    n = len(ts)
    head = np.array([n], dtype="<u4").tobytes()
    if n == 0:
        return head
    head += np.array([ts[0]], dtype="<i8").tobytes()
    if n == 1:
        return head
    deltas = np.diff(ts)
    head += np.array([deltas[0]], dtype="<i8").tobytes()
    if n == 2:
        return head
    dod = np.diff(deltas)
    m = len(dod)
    # bucket selection: the paper's buckets, symmetrized to two's-complement
    # payload ranges ([-64,63] etc.) so encode/decode are exact inverses
    b7 = (dod >= -64) & (dod <= 63)
    b9 = (dod >= -256) & (dod <= 255) & ~b7
    b12 = (dod >= -2048) & (dod <= 2047) & ~b7 & ~b9
    b64 = ~(b7 | b9 | b12)
    zero = dod == 0

    width = 4 + 64
    bitmat = np.zeros((m, width), dtype=bool)
    lengths = np.zeros(m, dtype=np.int64)

    lengths[zero] = 1  # '0'
    for payload, prefix in _TS_BUCKETS:
        sel = {7: b7 & ~zero, 9: b9, 12: b12, 64: b64}[payload]
        if not sel.any():
            continue
        p = len(prefix)
        bitmat[sel, :p] = np.array(prefix, dtype=bool)
        bitmat[np.ix_(sel, range(p, p + payload))] = _bits_msb_first(dod[sel], payload)
        lengths[sel] = p + payload
    return head + _pack(bitmat, lengths)


def decode_timestamps(buf: bytes) -> np.ndarray:
    n = int(np.frombuffer(buf[:4], dtype="<u4")[0])
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    out[0] = np.frombuffer(buf[4:12], dtype="<i8")[0]
    if n == 1:
        return out
    delta = int(np.frombuffer(buf[12:20], dtype="<i8")[0])
    out[1] = out[0] + delta
    r = _BitReader(buf[20:])
    for i in range(2, n):
        if r.read(1) == 0:
            dod = 0
        elif r.read(1) == 0:
            dod = r.read(7)
            dod -= 1 << 7 if dod >= (1 << 6) else 0
        elif r.read(1) == 0:
            dod = r.read(9)
            dod -= 1 << 9 if dod >= (1 << 8) else 0
        elif r.read(1) == 0:
            dod = r.read(12)
            dod -= 1 << 12 if dod >= (1 << 11) else 0
        else:
            dod = r.read(64)
            dod -= 1 << 64 if dod >= (1 << 63) else 0
        # two's-complement wraparound: numpy's diff on int64 wraps mod 2^64,
        # so the accumulator must too — makes decode the exact inverse for
        # ANY int64 input (hypothesis probes ±2^62 timestamps)
        delta = (delta + dod + (1 << 63)) % (1 << 64) - (1 << 63)
        out[i] = (int(out[i - 1]) + delta + (1 << 63)) % (1 << 64) - (1 << 63)
    return out


# --------------------------------------------------------------------------- #
# values: Gorilla XOR
# --------------------------------------------------------------------------- #

def encode_values(vals: np.ndarray) -> bytes:
    """vals: float64 (NaN allowed — NaN has a fixed bit pattern and
    round-trips). Header: n:uint32, vals[0] bits:uint64."""
    v = np.ascontiguousarray(np.asarray(vals, dtype=np.float64)).view(np.uint64)
    n = len(v)
    head = np.array([n], dtype="<u4").tobytes()
    if n == 0:
        return head
    head += np.array([v[0]], dtype="<u8").tobytes()
    if n == 1:
        return head
    xor = v[1:] ^ v[:-1]
    m = len(xor)
    lz = np.minimum(clz64(xor), 63)
    tz = ctz64(xor)
    sig = np.where(xor == 0, 0, 64 - lz - tz)

    width = 2 + 6 + 6 + 64
    bitmat = np.zeros((m, width), dtype=bool)
    lengths = np.ones(m, dtype=np.int64)  # '0' for zero xor
    nz = xor != 0
    if nz.any():
        lengths[nz] = 2 + 6 + 6 + sig[nz]
        bitmat[nz, 0] = True  # '1'
        bitmat[nz, 1] = True  # '1' = explicit window
        bitmat[np.ix_(nz, range(2, 8))] = _bits_msb_first(lz[nz], 6)
        bitmat[np.ix_(nz, range(8, 14))] = _bits_msb_first(sig[nz], 6)
        # significant bits: xor >> tz, sig bits wide.  sig varies per row, so
        # write into a fixed 64-bit field left-aligned at column 14 and let
        # lengths clip it: row bits 14..14+sig = MSB-first of (xor >> tz)
        shifted = (xor[nz].astype(np.uint64)) >> tz[nz].astype(np.uint64)
        # left-align: bit j of field = bit (sig-1-j) of shifted
        sigs = sig[nz]
        sub = np.zeros((int(nz.sum()), 64), dtype=bool)
        for j in range(64):
            sel = sigs > j
            if not sel.any():
                break
            bitpos = (sigs[sel] - 1 - j).astype(np.uint64)
            sub[sel, j] = ((shifted[sel] >> bitpos) & np.uint64(1)).astype(bool)
        bitmat[np.ix_(nz, range(14, 78))] = sub
    return head + _pack(bitmat, lengths)


def decode_values(buf: bytes) -> np.ndarray:
    n = int(np.frombuffer(buf[:4], dtype="<u4")[0])
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    out[0] = np.frombuffer(buf[4:12], dtype="<u8")[0]
    r = _BitReader(buf[12:])
    prev_lz, prev_sig = 0, 64
    for i in range(1, n):
        if r.read(1) == 0:
            out[i] = out[i - 1]
            continue
        if r.read(1) == 0:  # reuse previous window
            lz, sig = prev_lz, prev_sig
        else:
            lz = r.read(6)
            sig = r.read(6)
            if sig == 0:
                sig = 64
            prev_lz, prev_sig = lz, sig
        bits = r.read(sig)
        tzbits = 64 - lz - sig
        out[i] = out[i - 1] ^ (np.uint64(bits) << np.uint64(tzbits))
    return out.view(np.float64)


# --------------------------------------------------------------------------- #
# pipeline stage
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class EncodeConfig:
    key: str = "source"
    ts_col: str = "bucket"
    values: tuple[str, ...] = ("n_tok_mean", "tok_mean_mean")
    window_s: int = 86400


def encode_group(g: pa.Table, cfg: EncodeConfig) -> pa.Table:
    """The rows of one (key, window) → one encoded blob row: DoD timestamps +
    Gorilla-XOR per value column, with raw/encoded byte counts for the
    compression-ratio metrics."""
    from .rollup import floor_bucket_us

    ts = g[cfg.ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    row = {
        cfg.key: g[cfg.key].slice(0, 1),
        "window": pa.array(floor_bucket_us(ts[:1], cfg.window_s)).cast(pa.timestamp("us")),
        "n": pa.array([len(ts)], pa.int64()),
        "ts_blob": pa.array([encode_timestamps(ts)], pa.binary()),
    }
    raw_bytes = 8 * len(ts)
    enc_bytes = len(row["ts_blob"][0].as_py())
    for v in cfg.values:
        x = g[v].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)[order]
        blob = encode_values(x)
        row[f"{v}_blob"] = pa.array([blob], pa.binary())
        raw_bytes += 8 * len(x)
        enc_bytes += len(blob)
    row["bytes_raw"] = pa.array([raw_bytes], pa.int64())
    row["bytes_enc"] = pa.array([enc_bytes], pa.int64())
    return pa.table(row)


def encode_tier(ds, cfg: EncodeConfig):
    """Tier rows → one ``encode_group`` blob row per (key, window)."""
    from .rollup import floor_bucket_us

    def add_window(b: pa.Table) -> pa.Table:
        ts = b[cfg.ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column("_window", pa.array(floor_bucket_us(ts, cfg.window_s)))

    return (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby([cfg.key, "_window"])
        .map_groups(lambda g: encode_group(g, cfg), batch_format="pyarrow")
    )


def decode_tier_row(row: dict, values: tuple[str, ...]) -> dict:
    """Inverse of one encode_tier row (verification / selective reads)."""
    out = {"ts": decode_timestamps(row["ts_blob"])}
    for v in values:
        out[v] = decode_values(row[f"{v}_blob"])
    return out
