"""Gorilla/DoD codec: exact round-trips, compression ratio, pipeline stage."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdat_ray.stages.encode import (
    EncodeConfig,
    clz64,
    ctz64,
    decode_timestamps,
    decode_values,
    encode_timestamps,
    encode_tier,
    encode_values,
)

US = 1_000_000


def test_bit_helpers():
    x = np.array([0, 1, 2, 3, 1 << 63, (1 << 64) - 1, 0x00F0], dtype=np.uint64)
    np.testing.assert_array_equal(clz64(x), [64, 63, 62, 62, 0, 0, 56])
    np.testing.assert_array_equal(ctz64(x), [64, 0, 1, 0, 63, 0, 4])


def test_timestamps_roundtrip_regular():
    ts = np.arange(0, 86400, 60, dtype=np.int64) * US  # perfectly regular
    blob = encode_timestamps(ts)
    np.testing.assert_array_equal(decode_timestamps(blob), ts)
    # regular series: dod==0 everywhere -> ~1 bit/point after the header
    assert len(blob) < 20 + len(ts) // 8 + 2


def test_timestamps_roundtrip_irregular():
    rng = np.random.default_rng(3)
    deltas = rng.integers(1, 10_000_000, 5000)
    ts = np.cumsum(deltas).astype(np.int64)
    np.testing.assert_array_equal(decode_timestamps(encode_timestamps(ts)), ts)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_timestamps_tiny(n):
    ts = np.arange(n, dtype=np.int64) * 17
    np.testing.assert_array_equal(decode_timestamps(encode_timestamps(ts)), ts)


def _golden_timestamps():
    rng = np.random.default_rng(19)
    # steps around a 60 s cadence whose dods fall in every bucket: 0, 7, 9,
    # 12 and 64 bits, ±2**62 included
    jit = np.array([0, 5, -64, 63, 200, -256, 255, 2000, -2048, 2047, 10**9, -(10**9),
                    2**62, -(2**62)])
    steps = 60_000_000 + rng.choice(jit, 300)
    out = {"mixed": np.cumsum(np.r_[1_650_000_000_000_000, steps]).astype(np.int64),
           "regular": np.arange(50, dtype=np.int64) * 60_000_000,
           "huge": np.array([0, 2**62, -(2**62), 2**62, 0, -(2**62), 2**62 - 1, -(2**62) + 7],
                            np.int64)}
    for n in range(4):
        out[f"n{n}"] = np.arange(n, dtype=np.int64) * 17 + 5
    return out


def _golden_values():
    rng = np.random.default_rng(23)
    out = {"normal": rng.normal(100, 5, 400),
           "special": np.array([np.nan, np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, 1e300,
                                -0.0, 0.0, np.nan, 1.5, 1.5, 1.5, -np.inf]),
           # xor 0x8000000000000001: 64 significant bits
           "sig64": np.array([1.0, -1.0000000000000002, 1.0, -1.0000000000000002]),
           "runs": np.repeat(rng.normal(0, 1, 6), rng.integers(1, 30, 6)),
           "rounded": np.round(150 + 10 * np.sin(np.arange(300) / 50), 1),
           "bits": rng.integers(0, 2**63, 200, dtype=np.int64).view(np.float64)}
    for n in range(4):
        out[f"n{n}"] = np.arange(n, dtype=np.float64) * 0.1
    return out


_GOLDEN = {
    "ts_mixed": "8668854be880b41ba94140a678d0eefb",
    "ts_regular": "7ccb86891b431ef6a53dc4b5e0d95ed5",
    "ts_huge": "fbca08c72aa2f5212ded1d0f4669c524",
    "ts_n0": "f1d3ff8443297732862df21dc4e57262",
    "ts_n1": "12fc1489b12fcdedb8fc818b7369b5d9",
    "ts_n2": "bfcf8efde8f33884f3c24ac585bf69ce",
    "ts_n3": "783c254d64fab44d6bf813909c339c6a",
    "v_normal": "9e3a79fa997a420a364a99863e075f6b",
    "v_special": "66eef502c6085556753c7d40297da734",
    "v_sig64": "e751bef45d4954e7fee8e00bf4913aaf",
    "v_runs": "dcc9e490f035bb4d5f6049d26961132f",
    "v_rounded": "a555c0e1e3bb1b23cb63f723fe03a5f4",
    "v_bits": "fb28b0e4f206ff922ae9c089d04b2cea",
    "v_n0": "f1d3ff8443297732862df21dc4e57262",
    "v_n1": "9013eccd91ad614d7893c739275a394f",
    "v_n2": "697f423c17eea438044d2b99d93d95c3",
    "v_n3": "93ee9fe380c2837c488e86e77baa57f3",
}


def test_encoder_bytes_are_pinned():
    """The blobs' bytes, not only their round trip: md5s of seeded inputs
    that cover every DoD bucket, 64 significant bits, NaN, ±0, ±inf, runs
    of equal values and 0 to 3 rows.  A format change that still round
    trips fails here."""
    import hashlib

    mixed = np.diff(np.diff(_golden_timestamps()["mixed"]))
    a = np.abs(mixed + (mixed < 0))
    assert (mixed == 0).any() and (mixed != 0).any()
    for lo, hi in ((0, 64), (64, 256), (256, 2048), (2048, 2**63)):
        assert ((a >= lo) & (a < hi) & (mixed != 0)).any(), (lo, hi)
    assert (np.abs(mixed) >= 2**62).any()
    got = {f"ts_{k}": encode_timestamps(v) for k, v in _golden_timestamps().items()}
    got.update({f"v_{k}": encode_values(v) for k, v in _golden_values().items()})
    assert {k: hashlib.md5(b).hexdigest() for k, b in got.items()} == _GOLDEN
    for k, v in _golden_timestamps().items():
        np.testing.assert_array_equal(decode_timestamps(got[f"ts_{k}"]), v)
    for k, v in _golden_values().items():
        np.testing.assert_array_equal(decode_values(got[f"v_{k}"]).view(np.uint64),
                                      v.view(np.uint64))


def test_values_roundtrip():
    rng = np.random.default_rng(4)
    vals = np.r_[
        rng.normal(100, 5, 1000),
        np.repeat(42.5, 100),  # runs of identical values -> 1 bit each
        [np.nan, np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, 1e300],
    ]
    got = decode_values(encode_values(vals))
    np.testing.assert_array_equal(
        got.view(np.uint64), np.ascontiguousarray(vals).view(np.uint64)
    )


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=200))
@settings(max_examples=50, deadline=None)
def test_values_roundtrip_hypothesis(vals):
    v = np.array(vals, dtype=np.float64)
    got = decode_values(encode_values(v))
    np.testing.assert_array_equal(got.view(np.uint64), np.ascontiguousarray(v).view(np.uint64))


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_timestamps_roundtrip_hypothesis(ts):
    t = np.sort(np.array(ts, dtype=np.int64))
    np.testing.assert_array_equal(decode_timestamps(encode_timestamps(t)), t)


def test_compression_ratio_on_tier_like_data():
    ts = np.arange(0, 86400, 60, dtype=np.int64) * US
    # decimal-rounded floats (worst realistic case: mantissas are noisy)
    vals = np.round(150 + 10 * np.sin(np.arange(len(ts)) / 50), 1)
    raw = 16 * len(ts)
    enc = len(encode_timestamps(ts)) + len(encode_values(vals))
    assert enc < raw / 2, f"compression ratio too low: {raw / enc:.2f}x"
    # integer-valued series (counts stored as floats): few significant bits
    counts = np.floor(150 + 10 * np.sin(np.arange(len(ts)) / 50))
    enc2 = len(encode_timestamps(ts)) + len(encode_values(counts))
    assert enc2 < raw / 4, f"count-series ratio too low: {raw / enc2:.2f}x"


def test_encode_tier_stage(ray_session):
    import ray.data as rd

    ts = (np.arange(0, 7200, 60, dtype=np.int64) * US)
    t = pa.table(
        {
            "source": pa.array(["a"] * len(ts)),
            "bucket": pa.array(ts).cast(pa.timestamp("us")),
            "n_tok_mean": pa.array(np.linspace(100, 200, len(ts))),
        }
    )
    out = encode_tier(
        rd.from_arrow(t), EncodeConfig(values=("n_tok_mean",), window_s=3600)
    ).to_pandas()
    assert len(out) == 2  # two 1h windows
    total = 0
    for _, row in out.iterrows():
        dec_ts = decode_timestamps(row["ts_blob"])
        dec_v = decode_values(row["n_tok_mean_blob"])
        assert len(dec_ts) == row["n"] == len(dec_v)
        total += row["n"]
        assert row["bytes_enc"] < row["bytes_raw"]
    assert total == len(ts)


def test_encoded_tier_store_roundtrip(ray_session, tmp_path):
    """Flagship writes t1m_enc blobs; decoding them reproduces the t1m tier
    values exactly, and the manifest records the compression ratio."""
    import numpy as np
    import ray.data as rd

    from tsdat_ray.pipelines.rollup_pipeline import PipelineConfig, run_pipeline
    from tsdat_ray.stages.encode import decode_tier_row
    from tsdat_ray.synth import generate_sequences_parquet

    corpus = generate_sequences_parquet(str(tmp_path / "c"), n_rows=8000, seed=7)
    root = str(tmp_path / "store")
    stats = run_pipeline(corpus, PipelineConfig(out_root=root, resume=False, run_id="e"))
    assert stats["1m_enc"]["new_partitions"] > 0
    assert stats["1m_enc"]["compression_ratio"] > 1.0, "DoD+Gorilla should compress the tier"

    t1m = rd.read_parquet(f"{root}/t1m").to_pandas()
    enc = rd.read_parquet(f"{root}/t1m_enc").to_pandas()
    vals = ("n_tok_mean", "tok_mean_mean")
    # decode one (source, window) blob and compare against the tier rows
    row = enc.iloc[0]
    dec = decode_tier_row(row, vals)
    src = row["source"]
    sel = t1m[(t1m["source"] == src)].copy()
    sel["b_us"] = sel["bucket"].astype("int64")
    sel = sel[sel["b_us"].isin(dec["ts"])].sort_values("b_us")
    m = len(dec["ts"])
    assert m == row["n"]
    got_sel = sel.iloc[:m]
    np.testing.assert_array_equal(np.sort(dec["ts"]), np.sort(got_sel["b_us"].to_numpy()[:m]))
    order = np.argsort(dec["ts"])
    for v in vals:
        np.testing.assert_allclose(np.asarray(dec[v])[order], got_sel[v].to_numpy()[:m], rtol=0, atol=0)


# --------------------------------------------------------------------------- #
# property-based roundtrips (hypothesis)
# --------------------------------------------------------------------------- #

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=0,
        max_size=64,
    )
)
def test_gorilla_roundtrip_any_floats(vals):
    import numpy as np

    x = np.array(vals, dtype=np.float64)
    got = decode_values(encode_values(x))
    np.testing.assert_array_equal(
        got.view(np.uint64), x.view(np.uint64)  # bitwise: NaN payloads too
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**62), max_value=2**62),
        min_size=0,
        max_size=64,
    )
)
def test_dod_roundtrip_any_timestamps(vals):
    import numpy as np

    ts = np.array(sorted(vals), dtype=np.int64)
    got = decode_timestamps(encode_timestamps(ts))
    np.testing.assert_array_equal(got, ts)
