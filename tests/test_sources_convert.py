"""Declared-schema CSV sources + unit/datetime converters."""

import numpy as np
import pyarrow as pa
import pytest

from tsdat_ray.sources.csv_source import parse_preamble, read_csv_declared, read_preamble_csv
from tsdat_ray.sources.declared import DeclaredSchema, DeclaredVar, standardize_declared
from tsdat_ray.stages.convert import UnitsError, convert_units, string_to_datetime, unit_factors


# --------------------------------------------------------------------------- #
# converters
# --------------------------------------------------------------------------- #

def test_unit_factors_linear():
    s, o = unit_factors("km/h", "m/s")
    assert np.isclose(np.array([36.0]) * s + o, [10.0]).all()
    s, o = unit_factors("mm", "m")
    assert np.isclose(1000.0 * s + o, 1.0)


def test_unit_factors_affine_temperature():
    s, o = unit_factors("degC", "degF")
    assert np.isclose(100.0 * s + o, 212.0)
    s, o = unit_factors("degF", "K")
    assert np.isclose(32.0 * s + o, 273.15)


def test_unit_errors():
    with pytest.raises(UnitsError):
        unit_factors("m", "s")
    with pytest.raises(UnitsError):
        unit_factors("furlongs", "m")
    with pytest.raises(UnitsError):
        unit_factors("W/m^2", "J/m^2")  # power vs energy flux


@pytest.mark.parametrize(
    "src,dst,scale,offset",
    [
        # the reference's pint cases (test_converters.py:53-93): degF→degC,
        # degK→degC, "km s-1"→"m s-1"
        ("degF", "degC", 5 / 9, -32 * 5 / 9),
        ("degK", "degC", 1.0, -273.15),
        ("km s-1", "m s-1", 1000.0, 0.0),
        # compound/UDUNITS strings from the reference's example configs
        ("m s-2", "ft s-2", 1 / 0.3048, 0.0),
        ("W/m^2", "W m-2", 1.0, 0.0),
        ("mg/L", "g/m^3", 1.0, 0.0),
        ("mm/day", "m/s", 0.001 / 86400, 0.0),
        ("kg m2 s-3", "W", 1.0, 0.0),
        ("hPa", "mbar", 1.0, 0.0),
        ("knots", "km/h", 1.852, 0.0),
        ("%", "1", 0.01, 0.0),
        ("us", "ms", 1e-3, 0.0),
    ],
)
def test_unit_factors_compound(src, dst, scale, offset):
    s, o = unit_factors(src, dst)
    assert np.isclose(s, scale, rtol=1e-12)
    assert np.isclose(o, offset, rtol=1e-9, atol=1e-9)


def test_convert_units_column():
    col = pa.chunked_array([[0.0, 100.0]])
    out = convert_units(col, "degC", "K")
    assert np.allclose(out.to_numpy(), [273.15, 373.15])
    # no-op paths (units_converter.py:34-44)
    assert convert_units(col, "degC", "degC") is col
    assert convert_units(col, "degC", "1") is col
    s = pa.chunked_array([["a", "b"]])
    assert convert_units(s, "degC", "K") is s


def test_string_to_datetime_tz():
    col = pa.array(["2024-01-01 05:30:00", "2024-06-01 05:30:00"])
    out = string_to_datetime(col, "%Y-%m-%d %H:%M:%S", timezone="America/New_York")
    got = out.cast(pa.int64()).to_pylist()
    # EST (UTC-5) then EDT (UTC-4)
    exp = [
        np.datetime64("2024-01-01T10:30:00", "us").astype(np.int64),
        np.datetime64("2024-06-01T09:30:00", "us").astype(np.int64),
    ]
    assert got == [int(e) for e in exp]


# --------------------------------------------------------------------------- #
# declared-schema standardize
# --------------------------------------------------------------------------- #

SCHEMA = DeclaredSchema(
    variables=(
        DeclaredVar("time", "timestamp[us]", retrieve_from=("Timestamp", "time"),
                    converter=lambda c: string_to_datetime(c, "%Y-%m-%d %H:%M:%S")),
        DeclaredVar("temp", "float64", retrieve_from=("Temp_C",),
                    converter=lambda c: convert_units(c, "degC", "K")),
        DeclaredVar("rh", "float64", retrieve_from=("RH",)),
        DeclaredVar("missing_declared", "int32"),
        DeclaredVar("site", "string", static="sgp"),
    )
)


def test_standardize_declared_batch():
    batch = pa.table(
        {
            "Timestamp": ["2024-01-01 00:00:00", "2024-01-01 00:10:00"],
            "Temp_C": [0.0, 10.0],
            "RH": [50, 60],  # int → cast to float
            "undeclared_junk": ["x", "y"],
        }
    )
    out = standardize_declared(batch, SCHEMA)
    assert out.column_names == ["time", "temp", "rh", "missing_declared", "site"]
    assert out["temp"].to_pylist() == [273.15, 283.15]
    assert out["rh"].type == pa.float64()
    assert out["missing_declared"].to_pylist() == [-9999, -9999]  # default fill
    assert out["site"].to_pylist() == ["sgp", "sgp"]
    assert out["time"].type == pa.timestamp("us")


def test_read_csv_declared(ray_session, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text(
        "Timestamp,Temp_C,RH,undeclared_junk\n"
        "2024-01-01 00:00:00,0.0,50,x\n"
        "2024-01-01 00:10:00,10.0,60,y\n"
    )
    ds = read_csv_declared(str(p), SCHEMA)
    # Dataset row order across blocks is not guaranteed — sort before compare
    pdf = ds.to_pandas().sort_values("time").reset_index(drop=True)
    assert len(pdf) == 2
    assert list(pdf.columns) == ["time", "temp", "rh", "missing_declared", "site"]
    assert np.allclose(pdf["temp"], [273.15, 283.15])


def test_preamble_csv(ray_session, tmp_path):
    p = tmp_path / "a2e.csv"
    p.write_text(
        "location,sgp_site\n"
        "instrument,met01\n"
        "header=3\n"
        "Timestamp,Temp_C,RH\n"
        "2024-01-01 00:00:00,0.0,50\n"
        "2024-01-01 00:10:00,10.0,60\n"
    )
    attrs, skip = parse_preamble(str(p))
    assert attrs == {"location": "sgp_site", "instrument": "met01"} and skip == 3
    ds, attrs2 = read_preamble_csv(str(p), SCHEMA)
    pdf = ds.to_pandas()
    assert len(pdf) == 2
    assert attrs2["instrument"] == "met01"
    assert np.allclose(pdf["temp"], [273.15, 283.15])


# --------------------------------------------------------------------------- #
# archive source + path templates
# --------------------------------------------------------------------------- #

def test_read_archive_csv(ray_session, tmp_path):
    import io
    import tarfile
    import zipfile

    body = (
        "Timestamp,Temp_C,RH\n"
        "2024-01-01 00:00:00,0.0,50\n"
        "2024-01-01 00:10:00,10.0,60\n"
    )
    tar_p = tmp_path / "in.tar"
    with tarfile.open(tar_p, "w") as tf:
        for name in ("a.csv", "b.csv", "skip.txt", "__MACOSX/junk.csv"):
            data = body.encode() if name.endswith(".csv") else b"junk"
            ti = tarfile.TarInfo(name)
            ti.size = len(data)
            tf.addfile(ti, io.BytesIO(data))
    zip_p = tmp_path / "in.zip"
    with zipfile.ZipFile(zip_p, "w") as zf:
        zf.writestr("c.csv", body)

    from tsdat_ray.sources.archive_source import read_archive_csv

    ds = read_archive_csv([str(tar_p), str(zip_p)], SCHEMA)
    pdf = ds.to_pandas()
    assert len(pdf) == 6  # 3 csv members x 2 rows, txt + __MACOSX excluded
    assert set(pdf["_member"]) == {"a.csv", "b.csv", "c.csv"}
    assert np.allclose(sorted(pdf["temp"].unique()), [273.15, 283.15])


def test_template_substitute_extract():
    from tsdat_ray.state.template import Template, TemplateError

    t = Template("{datastream}.{date}[.{time}].parquet",
                 regex={"date": r"\d{8}", "time": r"\d{6}"})
    assert t.substitute({"datastream": "sgp.met.b1", "date": "20240101"}) == (
        "sgp.met.b1.20240101.parquet"
    )
    full = t.substitute({"datastream": "sgp.met.b1", "date": "20240101", "time": "120000"})
    assert full == "sgp.met.b1.20240101.120000.parquet"
    got = t.extract(full)
    assert got == {"datastream": "sgp.met.b1", "date": "20240101", "time": "120000"}
    assert t.extract("sgp.met.b1.20240101.parquet") == {
        "datastream": "sgp.met.b1", "date": "20240101",
    }
    with pytest.raises(TemplateError):
        t.substitute({"date": "20240101"})
    with pytest.raises(TemplateError):
        t.extract("does-not-match")


def test_read_jsonl_declared_nested(ray_session, tmp_path):
    import json

    from tsdat_ray.sources.declared import DeclaredSchema, DeclaredVar
    from tsdat_ray.sources.jsonl_source import read_jsonl_declared

    p = tmp_path / "docs.jsonl"
    rows = [
        {"Timestamp": "2024-01-01T00:00:00", "meta": {"Temp_C": 1.5, "site": "sgp"},
         "RH": 50},
        {"Timestamp": "2024-01-01T00:01:00", "meta": {"Temp_C": 2.5, "site": "sgp"},
         "RH": 51},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    schema = DeclaredSchema(variables=(
        DeclaredVar("time", "timestamp[us]", retrieve_from=("Timestamp",)),
        DeclaredVar("temp", "float64", retrieve_from=("meta.Temp_C",)),
        DeclaredVar("rh", "float64", retrieve_from=("RH",)),
        DeclaredVar("site", "string", retrieve_from=("meta.site",)),
    ))
    out = read_jsonl_declared(str(p), schema, flatten=True).to_pandas()
    assert list(out.columns) == ["time", "temp", "rh", "site"]
    assert out["temp"].tolist() == [1.5, 2.5]
    assert out["site"].tolist() == ["sgp", "sgp"]
    assert str(out["time"].dtype).startswith("datetime64")


def test_read_jsonl_declared_missing_column_filled(ray_session, tmp_path):
    import json

    from tsdat_ray.sources.declared import DeclaredSchema, DeclaredVar
    from tsdat_ray.sources.jsonl_source import read_jsonl_declared

    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"a": 1}) + "\n")
    schema = DeclaredSchema(variables=(
        DeclaredVar("a", "int64"),
        DeclaredVar("b", "float64"),
        DeclaredVar("c", "int32"),
    ))
    out = read_jsonl_declared(str(p), schema).to_pandas()
    assert out["a"].tolist() == [1]
    assert np.isnan(out["b"][0])
    assert out["c"].tolist() == [-9999]


def test_schema_drift_reports_missing_unexpected_typechange(ray_session, tmp_path):
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from tsdat_ray.sources.declared import DeclaredSchema, DeclaredVar, schema_drift

    good = pa.table({"ts": pa.array([], pa.timestamp("us")),
                     "v": pa.array([], pa.float64())})
    drifted = pa.table({"ts": pa.array([], pa.timestamp("us")),
                        "v": pa.array([], pa.float32()),   # type change
                        "extra": pa.array([], pa.string())})  # unexpected
    missing = pa.table({"ts": pa.array([], pa.timestamp("us"))})  # v missing
    pq.write_table(good, str(tmp_path / "good.parquet"))
    pq.write_table(drifted, str(tmp_path / "drift.parquet"))
    pq.write_table(missing, str(tmp_path / "miss.parquet"))

    schema = DeclaredSchema(variables=(
        DeclaredVar("ts", "timestamp[us]"), DeclaredVar("v", "double")))
    rows = schema_drift(str(tmp_path), schema).take_all()
    by = {(os.path.basename(r["path"]), r["column"]): r["issue"] for r in rows}
    assert by[("drift.parquet", "v")] == "type_changed"
    assert by[("drift.parquet", "extra")] == "unexpected"
    assert by[("miss.parquet", "v")] == "missing"
    assert ("good.parquet", "v") not in by and ("good.parquet", "ts") not in by


def test_prune_parquet_files_skips_nonoverlapping(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tsdat_ray.sources.declared import prune_parquet_files

    US_ = 1_000_000
    for day in range(4):
        ts = (np.arange(100, dtype=np.int64) + day * 86400) * US_
        pq.write_table(pa.table({"ts": pa.array(ts).cast(pa.timestamp("us")),
                                 "v": pa.array(np.arange(100.0))}),
                       str(tmp_path / f"d{day}.parquet"))
    lo, hi = 1 * 86400 * US_, 3 * 86400 * US_  # days 1 and 2 only
    kept = prune_parquet_files(str(tmp_path), "ts", lo, hi)
    names = sorted(p.split("/")[-1] for p in kept)
    assert names == ["d1.parquet", "d2.parquet"]


def test_prune_parquet_files_reads_the_ts_leaf_by_path(tmp_path):
    """A struct column before ``ts`` shifts the Parquet leaf index: the
    pruner must compare ``ts``'s own statistics, and keep a file whose
    ``ts`` column has no leaf of that name."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tsdat_ray.sources.declared import prune_parquet_files

    s = pa.array([{"a": 1, "b": 100}, {"a": 2, "b": 200}, {"a": 3, "b": 300}],
                 pa.struct([("a", pa.int64()), ("b", pa.int64())]))
    ts = pa.array([10, 20, 30], pa.timestamp("us"))
    pq.write_table(pa.table({"s": s, "ts": ts}), str(tmp_path / "a.parquet"))
    assert prune_parquet_files(str(tmp_path), "ts", 10, 31) == [str(tmp_path / "a.parquet")]
    assert prune_parquet_files(str(tmp_path), "ts", 31, 40) == []
    pq.write_table(pa.table({"ts": s}), str(tmp_path / "b.parquet"))
    assert prune_parquet_files(str(tmp_path / "b.parquet"), "ts", 31, 40) == [
        str(tmp_path / "b.parquet")]


def test_parquet_files_match_read_parquet(ray_session, tmp_path):
    """The input expansion reads the files ``read_parquet`` reads from a
    directory holding ``_SUCCESS``, hidden files, ``_``/``.`` subdirs and
    a nested dir; a ``file://`` URI keeps its scheme."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from tsdat_ray.sources.declared import parquet_files

    d = tmp_path / "in"
    for sub in ("nested/deeper", "_tmp", ".hid"):
        (d / sub).mkdir(parents=True)
    for i, name in enumerate(("a.parquet", "nested/b.parquet", "nested/deeper/c.parquet",
                              "noext", ".hidden.parquet", "_x.parquet", "_tmp/d.parquet",
                              ".hid/e.parquet", "nested/_y.parquet")):
        pq.write_table(pa.table({"x": [i]}), str(d / name))
    (d / "_SUCCESS").write_text("")
    got = parquet_files(str(d))
    assert got == sorted(rd.read_parquet(str(d)).input_files())
    assert [f.rsplit("/in/", 1)[1] for f in got] == [
        "a.parquet", "nested/b.parquet", "nested/deeper/c.parquet", "noext"]
    assert parquet_files(f"file://{d}") == [f"file://{f}" for f in got]
    assert parquet_files([str(d / "_x.parquet"), str(d / "nested")]) == [
        str(d / "_x.parquet"), *got[1:3]]


def test_a2e_csv_writer_dim_groups(tmp_path):
    """A2e-standard CSV write: dim-group file splitting, suffix naming, and
    the metadata-preamble grammar (parity: A2eCSVWriter,
    /root/reference/tsdat/io/writers/a2e_csv_writer.py:17-105)."""
    import numpy as np
    import pyarrow as pa

    from tsdat_ray.stages.writers import (
        a2e_filepath,
        write_batch_a2e_csv,
    )

    # filename grammar
    assert a2e_filepath("buoy.metocean.csv", ("time",)) == \
        "buoy.metocean.time.1d.a2e.csv"
    assert a2e_filepath("buoy.metocean.a2e.csv", ("time", "depth")) == \
        "buoy.metocean.time.depth.2d.a2e.csv"

    ts = pa.array(np.array([0, 0, 60_000_000, 60_000_000], np.int64)).cast(
        pa.timestamp("us"))
    tbl = pa.table(
        {
            "ts": ts,
            "depth": pa.array([0.0, 5.0, 0.0, 5.0]),
            "temp": pa.array([10.0, 11.0, 12.0, 13.0]),      # (ts, depth)
            "lat": pa.array([41.0, 41.0, 41.5, 41.5]),        # (ts,)
        }
    )
    base = str(tmp_path / "buoy.z07.a0.metocean.csv")
    res = write_batch_a2e_csv(
        tbl, base,
        dims_of={"temp": ("ts", "depth"), "lat": ("ts",)},
        attrs={"datastream": "buoy.z07.a0", "qc_bit_comment": 1},
        var_attrs={"temp": {"units": "degC"}},
    )
    paths = sorted(res["path"].to_pylist())
    assert paths == sorted([
        str(tmp_path / "buoy.z07.a0.metocean.ts.1d.a2e.csv"),
        str(tmp_path / "buoy.z07.a0.metocean.ts.depth.2d.a2e.csv"),
    ])

    two_d = (tmp_path / "buoy.z07.a0.metocean.ts.depth.2d.a2e.csv").read_text()
    lines = two_d.splitlines()
    # header=N counts every attr line + itself
    n_meta = int(lines[0].split("=")[1])
    assert lines[:n_meta] == [
        f"header={n_meta}",
        'datastream="buoy.z07.a0"',
        "qc_bit_comment=1",
        "ts:dtype=datetime64[us]",
        "depth:dtype=float64",
        "temp:dtype=float64",
        'temp:units="degC"',
    ]
    # body: csv header + 4 (ts, depth) rows, reference date format
    assert lines[n_meta] == "ts,depth,temp"
    assert lines[n_meta + 1] == "1970-01-01 00:00:00.000000,0.0,10.0"
    assert len(lines) == n_meta + 1 + 4

    one_d = (tmp_path / "buoy.z07.a0.metocean.ts.1d.a2e.csv").read_text()
    body = one_d.splitlines()
    assert body[body.index("ts,lat") + 1 :] == [
        "1970-01-01 00:00:00.000000,41.0",
        "1970-01-01 00:01:00.000000,41.5",
    ]
