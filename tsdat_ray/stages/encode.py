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

The ENCODER is vectorized numpy with no per-value or per-bit Python loop:
each row's bits are built as one 128-bit big-endian word pair (prefix or
header, then payload), expanded by one ``unpackbits``, cut to each row's
length by one boolean mask and packed by one ``packbits``.  The decoder is
a straightforward bit reader used for verification and selective reads.

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


def _pack_words(hi: np.ndarray, lo: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate the first ``lengths[i]`` bits of each row's 128-bit
    big-endian word pair ``(hi[i], lo[i])``; pack to bytes.  One
    ``unpackbits`` over the rows' bytes, one boolean mask that keeps each
    row's first bits in row order, one ``packbits``."""
    if not len(lengths):
        return b""
    words = np.empty((len(lengths), 2), ">u8")
    words[:, 0], words[:, 1] = hi, lo
    nbytes = (int(lengths.max()) + 7) // 8
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 16)[:, :nbytes], axis=1)
    keep = np.arange(bits.shape[1]) < lengths[:, None]
    return np.packbits(bits[keep]).tobytes()


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
    # bucket selection: the paper's buckets, symmetrized to two's-complement
    # payload ranges ([-64,63] etc.) so encode/decode are exact inverses
    a = np.abs(dod + (dod < 0))  # |dod|, less 1 below zero
    k = np.where(dod == 0, 0, 1 + np.searchsorted([64, 256, 2048], a, side="right"))
    # per bucket ('0', 7, 9, 12, 64 bits): prefix bits, prefix, payload bits
    p, pv, w = (np.array(c)[k] for c in ((1, 2, 3, 4, 4), (0, 0b10, 0b110, 0b1110, 0b1111),
                                         (0, 7, 9, 12, 64)))
    # the payload's low w bits left-aligned (dod is 0 where w is 0), then
    # the row as prefix + payload in a 128-bit big-endian word pair
    u = dod.view(np.uint64) << np.minimum(64 - w, 63).astype(np.uint64)
    ps = p.astype(np.uint64)
    hi = (pv.astype(np.uint64) << (np.uint64(64) - ps)) | (u >> ps)
    lo = u << (np.uint64(64) - ps)
    return head + _pack_words(hi, lo, p + w)


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
    lz = np.minimum(clz64(xor), 63)
    tz = ctz64(xor)
    sig = np.where(xor == 0, 0, 64 - lz - tz)

    # each row: '0' for a zero xor, else '11' + lz (6 bits) + sig mod 64
    # (6 bits; the decoder reads 0 as 64) + the sig bits from the highest
    # set one, which ``xor << lz`` left-aligns; as a 128-bit word pair
    nz = xor != 0
    hdr = np.where(nz, (0b11 << 12) | (lz << 6) | (sig & 63), 0).astype(np.uint64)
    left = xor << lz.astype(np.uint64)
    hi = (hdr << np.uint64(50)) | (left >> np.uint64(14))
    lo = left << np.uint64(50)
    return head + _pack_words(hi, lo, np.where(nz, 14 + sig, 1))


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
