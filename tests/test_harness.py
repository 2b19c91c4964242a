import contextlib
import hashlib
import io
import json
import logging
import os
import threading
import time

import numpy as np
import pytest

from qcdeval import harness
from qcdeval.cli import main
from qcdeval.detectors import DetectorConfig, LikelihoodModel
from qcdeval.harness import (
    emit_curve,
    ingest,
    run_all,
    sweep,
    write_manifest,
)
from qcdeval.metrics import INF, METRIC_NAMES, SequenceMeta
from qcdeval.simulate import LabeledDataset, SimSpec, save_jsonl, simulate

GAUSS = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)


def write_jsonl(tmp_path, records, name="d.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.fixture(scope="module")
def dataset():
    spec = SimSpec(
        model=GAUSS,
        n_sequences=300,
        length_law=("uniform", 30, 120),
        changepoint_law=("uniform",),
        with_change_fraction=0.6,
        seed=77,
    )
    return simulate(spec)


class TestIngest:
    def test_min_length_drop(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "values": [1.0, 2.0], "nu": None},
                {"id": "b", "values": [1.0], "nu": None},
                {"id": "c", "values": [0.0, 1.0, 2.0], "nu": 1},
                {"id": "d", "values": [3.0, 4.0], "nu": None},
            ],
        )
        ds = ingest(path, min_length=2)
        assert len(ds) == 3
        assert ds.ingest_report.n_dropped_short == 1

    def test_nu_beyond_length_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path, [{"id": "a", "values": [1.0, 2.0, 3.0, 4.0, 5.0], "nu": 7}]
        )
        ds = ingest(path)
        assert len(ds) == 0
        assert ds.ingest_report.n_rejected == 1
        assert "a" in ds.ingest_report.diagnostics[0]

    def test_rejections_equal_per_record_check(self, tmp_path):
        # Every changepoint SequenceMeta rejects, next to ones it keeps; the
        # short record "s" is dropped before its changepoint is looked at.
        nus = [None, 0, 4, 5, 7, -1, 2.5, -0.5, 1e300, 3, 5.0, 0.0]
        records = [{"id": f"r{i}", "values": [0.0] * 5, "nu": nu} for i, nu in enumerate(nus)]
        records.insert(3, {"id": "s", "values": [0.0], "nu": 9})
        ds = ingest(write_jsonl(tmp_path, records), min_length=2)
        want, kept = [], []
        for r in records[:3] + records[4:]:
            try:
                SequenceMeta(id=r["id"], length_T=5,
                             changepoint_nu=INF if r["nu"] is None else float(r["nu"]))
                kept.append(r["id"])
            except ValueError as exc:
                want.append(str(exc))
        report = ds.ingest_report
        assert report.diagnostics == tuple(want) and len(want) == 7
        assert (report.n_loaded, report.n_dropped_short, report.n_rejected) == (5, 1, 7)
        assert ds.ids == kept

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","values":[1,2],"nu":null}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            ingest(path)

    def test_missing_field_line_number(self, tmp_path):
        path = write_jsonl(tmp_path, [{"id": "a", "values": [1, 2]}])
        with pytest.raises(ValueError, match="line 1"):
            ingest(path)

    @pytest.mark.parametrize("values", [[[], []], [[]], []])
    def test_zero_feature_frames_line_number(self, tmp_path, values):
        # Frames without features would never alarm a window or cusum scan
        # and be counted as censored runs.
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "values": [1.0, 2.0], "nu": None},
                {"id": "b", "values": values, "nu": None},
            ],
        )
        with pytest.raises(ValueError, match="line 2: bad values shape"):
            ingest(path)

    @pytest.mark.parametrize("record, error", [
        ({"values": [1.0, 2.0, 3.0], "nu": True}, "changepoint must be a number or null"),
        ({"values": [1.0, 2.0, 3.0], "nu": "2"}, "changepoint must be a number or null"),
        ({"values": ["1", "2", "3"], "nu": None}, "values must be JSON numbers"),
        ({"values": [True, False, True], "nu": None}, "values must be JSON numbers"),
        ({"values": [[1, 2], ["3", "4"]], "nu": None}, "values must be JSON numbers"),
    ])
    def test_bool_or_string_number_line_number(self, tmp_path, record, error):
        # These were read as numbers: "nu": true as changepoint 1, "2" as 2,
        # and ["1", "2"] or [true, false] as frames.
        path = write_jsonl(tmp_path, [{"id": "a", "values": [0.5, 1.5], "nu": 1},
                                      {"id": "b", **record}])
        with pytest.raises(ValueError, match=f"malformed record at line 2: {error}"):
            ingest(path)

    def test_round_trip_identity(self, tmp_path, dataset):
        path = tmp_path / "rt.jsonl"
        save_jsonl(dataset, path)
        back = ingest(path, min_length=1)
        assert back.content_hash() == dataset.content_hash()

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,,1.0,2.0,3.0\nb,1,0.5,0.6\n")
        ds = ingest(path, fmt="csv")
        assert len(ds) == 2
        assert ds.metas[0].changepoint_nu == INF
        assert ds.metas[1].changepoint_nu == 1.0

    def test_unknown_format(self, tmp_path):
        path = write_jsonl(tmp_path, [])
        with pytest.raises(ValueError, match="format"):
            ingest(path, fmt="parquet")


def _cache_records(kind):
    """Records that exercise the ingest cache: a non-ASCII id, an id ending
    in NUL (JSONL only), a -0.0 frame, a record below min_length=2 and one
    with nu >= T."""
    rng = np.random.default_rng(5)
    records = []
    for i in range(14):
        length = int(rng.integers(5, 40))
        shape = (length, 2) if kind == "jsonl-2d" else (length,)
        records.append({"id": f"s{i}", "values": rng.normal(0.0, 0.4, shape).tolist(),
                        "nu": int(rng.integers(0, length)) if i % 3 else None})
    records[0]["id"] = "séquence-π"
    records[2]["values"] = records[2]["values"][:1]
    records[3]["nu"] = len(records[3]["values"]) + 2
    records[4]["values"][0] = [-0.0, 1.0] if kind == "jsonl-2d" else -0.0
    if kind != "csv":
        records[1]["id"] = "tail\x00"
    return records


def _write_cache_input(tmp_path, kind, records):
    """The records as JSONL or CSV with blank lines, and for JSONL a CRLF
    line and a whitespace-only line."""
    if kind == "csv":
        path = tmp_path / "d.csv"
        buf = io.StringIO()
        for i, r in enumerate(records):
            nu = "" if r["nu"] is None else str(r["nu"])
            buf.write(",".join([f'"{r["id"]}"', nu, *map(repr, r["values"])]) + "\n")
            if i % 5 == 1:
                buf.write("\n")
        path.write_bytes(buf.getvalue().encode())
        return path
    path = tmp_path / "d.jsonl"
    lines = [json.dumps(r) for r in records]
    lines.insert(3, "")
    lines.insert(7, "   ")
    lines[9] += "\r"
    path.write_bytes(("\n".join(lines) + "\n\n").encode())
    return path


def _sidecar(path):
    return path.parent / f".{path.name}.qcdeval-cache.npz"


def _settle(path):
    """Wait until the filesystem's clock, read as the mtime of a new file
    beside ``path``, has passed ``path``'s mtime and ctime, so that a
    sidecar written from now on trusts the file's stat fingerprint."""
    st = os.stat(path)
    probe = path.with_name("clock-probe")
    for _ in range(2000):
        probe.touch()
        now = probe.stat().st_mtime_ns
        probe.unlink()
        if now > max(st.st_mtime_ns, st.st_ctime_ns):
            return
        time.sleep(0.005)
    raise AssertionError(f"the filesystem clock never passed the times of {path}")


def _stored_stat(path):
    """The stat fingerprint held by the file's sidecar, or None."""
    with np.load(_sidecar(path)) as z:
        return z["stat"].item() if "stat" in z.files else None


@pytest.fixture
def sha256_calls(monkeypatch):
    """One entry per ``hashlib.sha256`` call, anywhere in the program."""
    calls, real = [], hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *args: calls.append(args) or real(*args))
    return calls


def _hashed_ingest(data, calls):
    """``ingest(data)`` and the number of SHA-256 hashes it started."""
    before = len(calls)
    dataset = ingest(data)
    return dataset, len(calls) - before


def assert_same_dataset(a, b):
    assert a.metas == b.metas
    assert a.ingest_report == b.ingest_report
    assert len(a.values) == len(b.values)
    for x, y in zip(a.values, b.values):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert a.content_hash() == b.content_hash()


@contextlib.contextmanager
def _uncached(monkeypatch):
    """Ingest as the program did before the cache: parse every time."""
    with monkeypatch.context() as m:
        m.setattr(harness, "_read_cache", lambda cache, key, fingerprint=None: None)
        m.setattr(harness, "_write_cache", lambda *args: None)
        yield


def _cache_lines(caplog):
    return [r.getMessage().split(":")[0] for r in caplog.records
            if r.getMessage().startswith("ingest cache")]


CLI_RUNS = {
    "1d": {"detector": ["--detector", "gsr", "--model", "gaussian:0,0.1,0.1"],
           "grid": "1:1e4:7-log", "threshold": "20"},
    "2d": {"detector": ["--detector", "window-l1", "--window-size", "3", "--burn-in", "3"],
           "grid": "0.5,2,8", "threshold": "2"},
}


def _cli_outputs(data, out, dims, before_each=lambda: None):
    """Bytes of every output of curve, evaluate and survival (both kinds)."""
    run = CLI_RUNS[dims]
    common = ["--data", str(data), *run["detector"]]
    argvs = [
        ["curve", *common, "--thresholds", run["grid"], "--out", str(out / "c.csv"),
         "--svg", str(out / "c.svg")],
        ["evaluate", *common, "--threshold", run["threshold"], "--out", str(out / "e.json")],
        ["survival", *common, "--threshold", run["threshold"], "--kind", "arl",
         "--out", str(out / "sa.csv")],
        ["survival", *common, "--threshold", run["threshold"], "--kind", "add",
         "--out", str(out / "sd.csv")],
    ]
    out.mkdir()
    for argv in argvs:
        before_each()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestIngestCache:
    KINDS = ("jsonl-1d", "jsonl-2d", "csv")

    @pytest.mark.parametrize("kind", KINDS)
    def test_hit_miss_and_uncached_parse_agree(self, tmp_path, kind, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        records = _cache_records(kind)
        data = _write_cache_input(tmp_path, kind, records)
        fmt = "csv" if kind == "csv" else "jsonl"
        with _uncached(monkeypatch):
            parsed = ingest(data, fmt=fmt)
        assert not _sidecar(data).exists()
        caplog.clear()
        miss = ingest(data, fmt=fmt)
        assert _sidecar(data).exists()
        hit = ingest(data, fmt=fmt)
        assert _cache_lines(caplog) == ["ingest cache miss", "ingest cache hit"]
        for ds in (miss, hit):
            assert_same_dataset(ds, parsed)
        # Against the records themselves: one dropped, one rejected.
        kept = [r for i, r in enumerate(records) if i not in (2, 3)]
        assert [m.id for m in hit.metas] == [r["id"] for r in kept]
        for r, vals in zip(kept, hit.values):
            assert vals.tobytes() == np.asarray(r["values"], dtype=np.float64).tobytes()
        report = hit.ingest_report
        assert (report.n_loaded, report.n_dropped_short, report.n_rejected) == (12, 1, 1)

        dims = "2d" if kind == "jsonl-2d" else "1d"
        with _uncached(monkeypatch):
            want = _cli_outputs(data, tmp_path / "uncached", dims)
        missed = _cli_outputs(data, tmp_path / "miss", dims,
                              before_each=lambda: _sidecar(data).unlink(missing_ok=True))
        hits = _cli_outputs(data, tmp_path / "hit", dims)
        assert len(want) == 9  # four results, their manifests and the SVG
        assert missed == want and hits == want

    def test_edited_file_misses_and_rewrites_sidecar(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = _write_cache_input(tmp_path, "jsonl-1d", _cache_records("jsonl-1d"))
        ingest(data)
        first = _sidecar(data).read_bytes()
        # Same size, one letter changed: only the bytes tell the two apart.
        data.write_text(data.read_text().replace('"s5"', '"t5"'))
        edited = ingest(data)
        assert "t5" in [m.id for m in edited.metas]
        assert _sidecar(data).read_bytes() != first
        assert_same_dataset(ingest(data), edited)
        assert _cache_lines(caplog) == ["ingest cache miss"] * 2 + ["ingest cache hit"]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy",
                                        "wrong-version", "wrong-format"])
    def test_bad_sidecar_is_ignored_and_replaced(self, tmp_path, damage, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = _write_cache_input(tmp_path, "jsonl-1d", _cache_records("jsonl-1d"))
        with _uncached(monkeypatch):
            want = ingest(data)
        sidecar = _sidecar(data)
        if damage == "wrong-version":
            monkeypatch.setattr(harness, "_CACHE_VERSION", 0)
            ingest(data)
            monkeypatch.undo()
        elif damage == "wrong-format":
            # The same bytes read as CSV fail, so key a JSONL parse as CSV.
            real_key = harness._cache_key
            monkeypatch.setattr(harness, "_cache_key", lambda fmt, digest: real_key("csv", digest))
            ingest(data)
            monkeypatch.undo()
        elif damage == "npy":
            with open(sidecar, "wb") as fh:
                np.save(fh, np.arange(3.0))
        else:
            ingest(data)
            good = sidecar.read_bytes()
            sidecar.write_bytes({"truncated": good[: len(good) // 2], "garbage": b"not a zip" * 50,
                                 "empty": b""}[damage])
        damaged = sidecar.read_bytes()
        caplog.clear()
        assert_same_dataset(ingest(data), want)
        assert sidecar.read_bytes() != damaged
        assert_same_dataset(ingest(data), want)
        assert _cache_lines(caplog) == ["ingest cache miss", "ingest cache hit"]

    def test_failed_write_changes_no_output_and_leaves_no_file(self, tmp_path, monkeypatch):
        data = _write_cache_input(tmp_path, "jsonl-1d", _cache_records("jsonl-1d"))
        with _uncached(monkeypatch):
            want = _cli_outputs(data, tmp_path / "uncached", "1d")

        def refuse(src, dst):
            raise OSError("refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert _cli_outputs(data, tmp_path / "out", "1d") == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "out", "uncached"]

    @pytest.mark.parametrize("bad, error", [
        ('{"id": "x", "values": [1.0, "a"], "nu": null}', "line 6: could not convert"),
        ('{"id": "s0", "values": [1.0, 2.0], "nu": null}', "line 6: duplicate id 's0'"),
    ])
    def test_malformed_record_raises_and_writes_no_sidecar(self, tmp_path, bad, error):
        lines = [json.dumps({"id": f"s{i}", "values": [0.1 * i, 0.2, 0.3], "nu": None})
                 for i in range(5)]
        lines += [bad, json.dumps({"id": "s9", "values": [0.1, 0.2], "nu": None})]
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(lines) + "\n")
        for _ in range(2):
            with pytest.raises(ValueError, match=error):
                ingest(data)
            assert list(tmp_path.iterdir()) == [data]

    def test_fifo_parses_without_sidecar(self, tmp_path, monkeypatch):
        regular = _write_cache_input(tmp_path, "jsonl-1d", _cache_records("jsonl-1d"))
        with _uncached(monkeypatch):
            want = ingest(regular)
        fifo = tmp_path / "p.jsonl"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(regular.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            got = ingest(fifo)
        finally:
            if writer.is_alive():  # ingest never opened the FIFO: unblock it
                with contextlib.suppress(OSError):
                    os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(5)
        assert_same_dataset(got, want)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "p.jsonl"]

    def test_two_ingests_in_one_process_both_read_the_sidecar(self, tmp_path, monkeypatch):
        data = _write_cache_input(tmp_path, "jsonl-1d", _cache_records("jsonl-1d"))
        _settle(data)  # so the first write stores a trusted fingerprint
        real, reads = harness._read_cache, []

        def counted(cache, key, fingerprint=None):
            records = real(cache, key, fingerprint)
            reads.append(records is not None)
            return records

        monkeypatch.setattr(harness, "_read_cache", counted)
        first = ingest(data)
        assert reads == []  # no sidecar yet: parsed without looking
        assert_same_dataset(ingest(data), first)
        assert_same_dataset(ingest(data), first)
        assert reads == [True, True]


class TestFlatSidecar:
    def test_sidecar_with_line_numbers_hits(self, tmp_path, monkeypatch, caplog, sha256_calls):
        # A sidecar of the current version that also holds an array the
        # reader does not name (each record's line number, as in the layout
        # before the flat dataset) and no stat fingerprint must hit, and is
        # then rewritten once with the fingerprint.
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = _write_cache_input(tmp_path, "jsonl-2d", _cache_records("jsonl-2d"))
        _settle(data)
        with _uncached(monkeypatch):
            want = ingest(data)
            parsed = harness._load(data, "jsonl")
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        with open(_sidecar(data), "wb") as fh:
            np.savez(fh, key=np.array(harness._cache_key("jsonl", digest)), frames=parsed.frames,
                     offsets=parsed.offsets, widths=parsed.widths, nu=parsed.nu,
                     hash=np.array(parsed.content_hash()),
                     lines=np.arange(len(parsed), dtype=np.int64) + 1,
                     ids=np.frombuffer(json.dumps(parsed.ids).encode(), np.uint8))
        with np.load(_sidecar(data)) as z:
            before = {name: z[name].tobytes() for name in z.files if name != "lines"}
        caplog.clear()
        got, hashes = _hashed_ingest(data, sha256_calls)
        assert_same_dataset(got, want)
        assert hashes == 1  # the file's bytes, to check the key
        with np.load(_sidecar(data)) as z:
            assert {name: z[name].tobytes() for name in before} == before
            assert sorted(z.files) == sorted([*before, "stat"])
        assert _stored_stat(data) == harness._fingerprint(os.stat(data))
        got, hashes = _hashed_ingest(data, sha256_calls)
        assert_same_dataset(got, want)
        assert hashes == 0
        assert _cache_lines(caplog) == ["ingest cache hit"] * 2

    @pytest.mark.parametrize("kind", TestIngestCache.KINDS)
    def test_hit_reads_the_sidecar_frames_without_copies(self, tmp_path, kind, monkeypatch):
        records = [r for i, r in enumerate(_cache_records(kind)) if i not in (2, 3)]
        data = _write_cache_input(tmp_path, kind, records)
        fmt = "csv" if kind == "csv" else "jsonl"
        miss = ingest(data, fmt=fmt)
        # Nothing dropped or rejected: a hit builds no dataset from pieces.
        monkeypatch.setattr(harness.LabeledDataset, "from_sequences", None)
        hit = ingest(data, fmt=fmt)
        assert hit.ingest_report.n_loaded == len(records) == 12
        with np.load(_sidecar(data)) as z:
            assert hit.frames.tobytes() == z["frames"].tobytes() == miss.frames.tobytes()
        for vals in hit.values:
            assert np.shares_memory(vals, hit.frames)
        assert_same_dataset(hit, miss)


class TestStatFingerprint:
    """A sidecar that holds the data file's stat fingerprint is loaded
    without hashing the file for as long as the file's stat matches it; the
    fingerprint is stored only when no later write can keep that stat."""

    def _data(self, tmp_path):
        data = _write_cache_input(tmp_path, "jsonl-1d", _cache_records("jsonl-1d"))
        _settle(data)
        return data

    def test_unchanged_file_is_not_hashed(self, tmp_path, caplog, sha256_calls):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = self._data(tmp_path)
        want = ingest(data)
        assert _stored_stat(data) == harness._fingerprint(os.stat(data))
        for _ in range(2):
            got, hashes = _hashed_ingest(data, sha256_calls)
            assert hashes == 0
            assert_same_dataset(got, want)
        assert _cache_lines(caplog) == ["ingest cache miss"] + ["ingest cache hit"] * 2

    def test_same_size_edit_with_mtime_restored_misses(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = self._data(tmp_path)
        ingest(data)
        assert _stored_stat(data) is not None
        before = os.stat(data)
        data.write_bytes(data.read_bytes().replace(b'"s5"', b'"t5"'))
        os.utime(data, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(data)
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns)
        ids = [m.id for m in ingest(data).metas]
        assert "t5" in ids and "s5" not in ids
        assert _cache_lines(caplog) == ["ingest cache miss"] * 2

    def test_future_mtime_is_never_trusted(self, tmp_path, caplog, sha256_calls):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = _write_cache_input(tmp_path, "jsonl-1d", _cache_records("jsonl-1d"))
        future = time.time_ns() + 3600 * 10**9
        os.utime(data, ns=(future, future))
        want = ingest(data)
        for _ in range(2):
            assert _stored_stat(data) is None
            got, hashes = _hashed_ingest(data, sha256_calls)
            assert hashes == 1
            assert_same_dataset(got, want)
        assert _cache_lines(caplog) == ["ingest cache miss"] + ["ingest cache hit"] * 2

    def test_touch_hashes_once_and_rekeys(self, tmp_path, caplog, sha256_calls):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = self._data(tmp_path)
        want = ingest(data)
        old = _stored_stat(data)
        os.utime(data)  # the same bytes, a new mtime and ctime
        _settle(data)
        got, hashes = _hashed_ingest(data, sha256_calls)
        assert hashes == 1  # hashed to check the key, not parsed
        assert_same_dataset(got, want)
        assert _stored_stat(data) == harness._fingerprint(os.stat(data)) != old
        got, hashes = _hashed_ingest(data, sha256_calls)
        assert hashes == 0
        assert_same_dataset(got, want)
        assert _cache_lines(caplog) == ["ingest cache miss"] + ["ingest cache hit"] * 2

    def test_matching_fingerprint_of_a_csv_key_is_not_read(self, tmp_path, monkeypatch):
        data = self._data(tmp_path)
        with _uncached(monkeypatch):
            want = _cli_outputs(data, tmp_path / "uncached", "1d")
        # Columns of another dataset, keyed as CSV, with the .jsonl file's stat.
        other = LabeledDataset.from_sequences(["other"], [np.arange(40.0) / 10], [INF])
        with open(_sidecar(data), "wb") as fh:
            np.savez(fh, key=np.array(harness._cache_key("csv", "0" * 64)),
                     stat=np.array(harness._fingerprint(os.stat(data))), frames=other.frames,
                     offsets=other.offsets, widths=other.widths, nu=other.nu,
                     hash=np.array(other.content_hash()),
                     ids=np.frombuffer(json.dumps(other.ids).encode(), np.uint8))
        assert _cli_outputs(data, tmp_path / "out", "1d") == want
        with np.load(_sidecar(data)) as z:
            assert z["key"].item().startswith(harness._cache_key("jsonl", ""))

    def test_failed_parse_or_write_leaves_no_tmp(self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")

        def tmp_files():
            return [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

        bad = write_jsonl(tmp_path, [{"id": "x", "values": [0.5, 0.25], "nu": None},
                                     {"id": "x", "values": [0.5, 0.25], "nu": None}], "bad.jsonl")
        with pytest.raises(ValueError, match="duplicate id"):
            ingest(bad)
        assert tmp_files() == []

        def refuse(*args, **kwargs):
            raise OSError("refused")

        data = self._data(tmp_path)
        with monkeypatch.context() as m:  # the write after a miss
            m.setattr(np, "savez", refuse)
            want = ingest(data)
        assert not _sidecar(data).exists() and tmp_files() == []
        ingest(data)
        os.utime(data)
        _settle(data)
        with monkeypatch.context() as m:  # the re-key after a hit
            m.setattr(np, "savez", refuse)
            assert_same_dataset(ingest(data), want)
        assert _stored_stat(data) != harness._fingerprint(os.stat(data))
        assert tmp_files() == []
        assert _cache_lines(caplog) == [
            "ingest cache miss", "ingest cache miss", "ingest cache not written",
            "ingest cache miss", "ingest cache hit", "ingest cache not written"]


class TestStoredHash:
    """The sidecar holds the dataset's content hash; a run whose ingest drops
    and rejects nothing reports it without hashing the frames again."""

    def _data(self, tmp_path, short):
        rng = np.random.default_rng(11)
        records = [{"id": f"s{i}", "values": rng.normal(0.0, 1.0, 30 + i).tolist(),
                    "nu": 5 if i % 2 else None} for i in range(8)]
        if short:
            records.append({"id": "short", "values": [0.5], "nu": None})
        return write_jsonl(tmp_path, records)

    def _manifest_hash(self, data, out):
        argv = ["curve", "--data", str(data), "--detector", "gsr", "--model", "gaussian:0,1,1",
                "--thresholds", "1,10,100", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return json.loads(out.with_name(f"{out.name}.manifest.json").read_text())["dataset_hash"]

    @staticmethod
    def _fresh_hash(data, monkeypatch):
        with _uncached(monkeypatch):
            ds = ingest(data)
        return LabeledDataset.from_sequences(list(ds.ids), ds.values, ds.nu).content_hash()

    @pytest.mark.parametrize("short", [False, True], ids=["whole", "with-drops"])
    def test_miss_and_hit_report_the_fresh_hash(self, tmp_path, monkeypatch, caplog, short):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = self._data(tmp_path, short)
        want = self._fresh_hash(data, monkeypatch)
        caplog.clear()
        assert self._manifest_hash(data, tmp_path / "miss.csv") == want
        with np.load(_sidecar(data)) as z:
            stored = str(z["hash"].item())
        # The sidecar holds the hash of every parsed record, dropped ones too.
        assert (stored == want) is not short
        calls = []
        real = LabeledDataset.content_hash
        monkeypatch.setattr(LabeledDataset, "content_hash",
                            lambda self: calls.append(self._kept_hash) or real(self))
        assert self._manifest_hash(data, tmp_path / "hit.csv") == want
        assert _cache_lines(caplog) == ["ingest cache miss", "ingest cache hit"]
        # A whole dataset reports the kept hash; one with drops is a new
        # dataset, hashed afresh.
        assert [kept is not None for kept in calls] == [not short]

    def test_version_1_sidecar_misses_once_and_is_rewritten(self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="qcdeval.harness")
        data = self._data(tmp_path, short=False)
        want = self._fresh_hash(data, monkeypatch)
        parsed = LabeledDataset.from_sequences(
            *zip(*((r["id"], np.array(r["values"]), INF if r["nu"] is None else r["nu"])
                   for r in map(json.loads, data.read_text().splitlines()))))
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        with open(_sidecar(data), "wb") as fh:  # the layout and key of version 1
            np.savez(fh, key=np.array(f"qcdeval-ingest-cache/1 jsonl {digest}"),
                     frames=parsed.frames, offsets=parsed.offsets, widths=parsed.widths,
                     nu=parsed.nu, ids=np.frombuffer(json.dumps(parsed.ids).encode(), np.uint8))
        caplog.clear()
        assert self._manifest_hash(data, tmp_path / "a.csv") == want
        with np.load(_sidecar(data)) as z:
            assert z["key"].item() == harness._cache_key("jsonl", digest)
            assert z["key"].item().startswith("qcdeval-ingest-cache/2 ")
            assert str(z["hash"].item()) == want
        assert self._manifest_hash(data, tmp_path / "b.csv") == want
        assert _cache_lines(caplog) == ["ingest cache miss", "ingest cache hit"]

    def test_kept_hash_never_outlives_a_change(self, tmp_path):
        data = self._data(tmp_path, short=False)
        ingest(data)
        hit = ingest(data)
        assert hit._kept_hash is not None
        kept = hit.content_hash()
        for column in (hit.frames, hit.nu, hit.offsets, hit.widths):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7.0
        with pytest.raises(TypeError):
            hit.ids[0] = "other"
        hit.nu = hit.nu.copy()
        hit.nu[0] = 3.0
        changed = LabeledDataset.from_sequences(list(hit.ids), hit.values, hit.nu).content_hash()
        assert hit.content_hash() == changed != kept


class TestSweep:
    def cfg(self):
        return DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS)

    def test_hand_dataset_point(self, tmp_path):
        # Craft outcomes through a threshold where the pipeline reproduces
        # the hand value: verified at the metric level in test_metrics; here
        # assert plumbing (single point, all metrics present).
        ds = simulate(
            SimSpec(
                model=GAUSS,
                n_sequences=20,
                length_law=("fixed", 50),
                changepoint_law=("uniform",),
                with_change_fraction=0.5,
                seed=5,
            )
        )
        res = sweep(ds, self.cfg(), [30.0], METRIC_NAMES, workers=1)
        assert len(res.points) == 1
        assert set(res.points[0].estimates) == set(METRIC_NAMES)

    def test_validation(self, dataset):
        with pytest.raises(ValueError, match="empty threshold"):
            sweep(dataset, self.cfg(), [], METRIC_NAMES)
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(dataset, self.cfg(), [2.0, 2.0], METRIC_NAMES)
        with pytest.raises(ValueError, match="no metrics"):
            sweep(dataset, self.cfg(), [1.0], [])

    def test_km_n_used_constant_lb_varies(self, dataset):
        res = sweep(
            dataset, self.cfg(), [2.0, 20.0, 200.0], METRIC_NAMES, workers=1
        )
        km_ns = {p.estimates["km-arl"].n_used for p in res.points}
        assert km_ns == {len(dataset)}
        lb_ns = [p.estimates["lb-arl"].n_used for p in res.points]
        assert len(set(lb_ns)) > 1

    def test_worker_determinism(self, dataset, tmp_path):
        res1 = sweep(dataset, self.cfg(), [5.0, 50.0], METRIC_NAMES, workers=1)
        res8 = sweep(dataset, self.cfg(), [5.0, 50.0], METRIC_NAMES, workers=8)
        p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        emit_curve(res1, p1)
        emit_curve(res8, p8)
        assert p1.read_bytes() == p8.read_bytes()

    def test_detector_failure_names_sequence(self):
        # A sequence the likelihood model rejects fails the sweep with its
        # id; it must never be counted as a censored run.
        model = LikelihoodModel(kind="poisson", lam0=1.0, lam1=4.0)
        counts = simulate(
            SimSpec(
                model=model,
                n_sequences=6,
                length_law=("fixed", 40),
                changepoint_law=("uniform",),
                with_change_fraction=0.5,
                seed=3,
            )
        )
        cfg = DetectorConfig(kind="cusum", threshold=1e12, model=model)
        assert len(sweep(counts, cfg, [1e12], ("km-arl",)).points) == 1
        counts.values[3][:] += 0.5  # non-integer counts, in the frame buffer
        with pytest.raises(ValueError) as err:
            sweep(counts, cfg, [1e12], ("km-arl",), workers=1)
        assert str(err.value) == (
            "sequence 'seq000003': poisson model requires non-negative integer frames"
        )

    def test_other_detector_errors_propagate(self, dataset, monkeypatch):
        import qcdeval.harness

        def boom(dataset, config, levels):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(qcdeval.harness, "scan_table", boom)
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            sweep(dataset, self.cfg(), [5.0], ("km-arl",))


class TestEmitCurve:
    def build(self, dataset, thresholds):
        cfg = DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS)
        return sweep(dataset, cfg, thresholds, METRIC_NAMES, workers=2)

    def test_csv_shape(self, dataset, tmp_path):
        res = self.build(dataset, [10.0])
        out = tmp_path / "c.csv"
        emit_curve(res, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "threshold,metric,value,sem,n_used,extrapolation_flag"
        assert len(rows) == 1 + len(METRIC_NAMES)

    def test_undefined_value_empty_field(self, dataset, tmp_path):
        # An impossible threshold leaves LB metrics undefined.
        res = self.build(dataset, [1e300])
        out = tmp_path / "c.csv"
        emit_curve(res, out)
        lb_rows = [
            r for r in out.read_text().splitlines() if r.split(",")[1] == "lb-arl"
        ]
        assert lb_rows and lb_rows[0].split(",")[2] == ""

    def test_svg_marker_counts(self, dataset, tmp_path):
        grid = list(np.geomspace(2.0, 60.0, 20))
        res = self.build(dataset, grid)
        out = tmp_path / "c.svg"
        emit_curve(res, out, fmt="svg")
        svg = out.read_text()
        assert svg.count('class="marker-km"') == 20
        assert svg.count('class="marker-lb"') <= 20
        assert 'class="extrapolation-region"' in svg

    def test_svg_omits_undefined_markers(self, dataset, tmp_path):
        res = self.build(dataset, [1e300])
        out = tmp_path / "c.svg"
        emit_curve(res, out, fmt="svg")
        svg = out.read_text()
        assert svg.count('class="marker-lb"') == 0

    def test_unknown_format(self, dataset, tmp_path):
        res = self.build(dataset, [10.0])
        with pytest.raises(ValueError):
            emit_curve(res, tmp_path / "c.x", fmt="png")


class TestMisc:
    def test_sweep_t_max(self, dataset):
        cfg = DetectorConfig(kind="cusum", threshold=5.0, model=GAUSS)
        assert sweep(dataset, cfg, [5.0], ["km-arl"]).t_max == max(
            min(m.changepoint_nu, m.length_T) for m in dataset.metas
        )

    def test_run_all_order_stable(self, dataset):
        cfg = DetectorConfig(kind="cusum", threshold=5.0, model=GAUSS)
        a = run_all(dataset, cfg, workers=1)
        b = run_all(dataset, cfg, workers=6)
        assert a == b

    def test_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(
            path, command="curve", config={"x": 1}, seed=7, dataset_hash="abc"
        )
        obj = json.loads(path.read_text())
        assert obj["tool"] == "qcdeval"
        assert obj["seed"] == 7
        assert obj["dataset_hash"] == "abc"
