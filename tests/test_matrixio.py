import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpaired import matrixio
from hdpaired.matrixio import (
    ColumnStandardizer,
    FeatureMatrix,
    PairedDataset,
    load_matrix,
    pair,
    read_csv,
    save_matrix,
    write_csv,
)


def fm(data, ids=None):
    data = np.asarray(data, dtype=float)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(data.shape[0]))
    return FeatureMatrix(data, ids)


class TestFeatureMatrix:
    def test_basic_construction(self):
        m = fm([[1.0, 2.0], [3.0, 4.0]])
        assert m.n_subjects == 2 and m.n_features == 2
        assert not m.data.flags.writeable

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            fm([[1.0, np.nan], [3.0, 4.0]])
        with pytest.raises(ValueError, match="non-finite"):
            fm([[1.0, 2.0], [np.inf, 4.0]])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            fm([[1.0], [2.0]], ids=("a", "a"))

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(ValueError, match="subject ids"):
            fm([[1.0], [2.0]], ids=("a",))


class TestCsvIo:
    def test_small_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,f1,f2\na,1.0,2.0\nb,3.5,-1.0\nc,0,0.25\n")
        m = load_matrix(str(path))
        assert m.n_subjects == 3 and m.n_features == 2
        assert m.subject_ids == ("a", "b", "c")
        assert m.data[1, 0] == 3.5

    def test_nan_cell_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,f1,f2\na,1.0,2.0\nb,NaN,4.0\n")
        with pytest.raises(ValueError, match=r"non-finite.*'f1'"):
            load_matrix(str(path))

    def test_parse_failure_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,f1\na,1.0\nb,oops\n")
        with pytest.raises(ValueError, match="oops"):
            load_matrix(str(path))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,f1\na,1.0\na,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_matrix(str(path))

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("subject,f1\na,1.0\n")
        with pytest.raises(ValueError, match="'id'"):
            load_matrix(str(path))

    def test_csv_round_trip(self, tmp_path):
        # The ".csv" name alone makes both calls use CSV.
        m = fm(np.random.default_rng(0).standard_normal((4, 3)))
        path = tmp_path / "m.csv"
        save_matrix(m, path)
        assert path.read_text().splitlines()[0] == "id,f1,f2,f3"
        back = load_matrix(path)
        assert back.subject_ids == m.subject_ids
        np.testing.assert_array_equal(back.data, m.data)


class TestCsvReaderWriter:
    def test_one_data_row_reads_as_one_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,2.0\n")
        header, labels, data = read_csv(str(path), labels=False)
        assert header == ["a", "b"] and labels is None
        np.testing.assert_array_equal(data, [[1.0, 2.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\nid,f1\n\na,1.5\n\nb,2.5\n\n")
        header, labels, data = read_csv(str(path), labels=True)
        assert header == ["id", "f1"] and labels == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.5], [2.5]])

    @pytest.mark.parametrize("body, message", [
        ("r0,r1\n1,2\n3\n", r"t\.csv:3: expected 2 fields, got 1"),
        ("r0,r1\n1,2\n3,x\n", r"t\.csv:3: cannot parse value 'x' in column 'r1'"),
        ("r0,r1\n1,2\n\n-inf,4\n", r"t\.csv:4: non-finite value '-inf' in column 'r0'$"),
        ("r0,r1\n", r"t\.csv: no data rows"),
        ("", r"t\.csv: empty file"),
    ])
    def test_errors_name_file_line_and_column(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            read_csv(str(path), labels=False)

    def test_non_finite_cell_names_subject(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,f1,f2\na,1,2\nb,3,inf\n")
        with pytest.raises(ValueError, match=r"t\.csv:3: non-finite value 'inf' in column "
                                             r"'f2' for subject 'b'"):
            read_csv(str(path), labels=True)

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        m = fm([[1.0, 2.0], [3.0, 4.5], [0.1, -2.0]], ids=("sub,01", 'x"y', "plain"))
        path = tmp_path / "rt.csv"
        save_matrix(m, str(path))
        assert path.read_text().splitlines()[1:3] == ['"sub,01",1.0,2.0', '"x""y",3.0,4.5']
        back = load_matrix(str(path))
        assert back.subject_ids == m.subject_ids
        np.testing.assert_array_equal(back.data, m.data)

    def test_ids_with_line_breaks_rejected(self):
        for sid in ("a\nb", "a\rb"):
            with pytest.raises(ValueError, match="line breaks"):
                fm([[1.0], [2.0]], ids=(sid, "c"))

    def test_writer_formats_numpy_scalars_as_plain_numbers(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(str(path), ["k", "v", "tag"], [(np.int64(3), np.float64(0.1), "a b")])
        assert path.read_text() == "k,v,tag\n3,0.1,a b\n"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=3, max_size=3), min_size=1, max_size=8),
           st.sampled_from([repr, "{:.8g}".format, "{:.17e}".format]))
    def test_cells_parse_to_the_bits_of_float(self, tmp_path_factory, rows, form):
        path = tmp_path_factory.mktemp("prop") / "p.csv"
        tokens = [[form(v) for v in row] for row in rows]
        path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in tokens))
        data = read_csv(str(path), labels=False)[2]
        expected = np.array([[float(t) for t in r] for r in tokens])
        assert data.tobytes() == expected.tobytes()


def float_reference(text, labels):
    """read_csv's contract written with csv and float(): (header, labels, data)."""
    records = [rec for rec in csv.reader(io.StringIO(text, newline="")) if rec]
    start = 1 if labels else 0
    data = np.array([[float(tok) for tok in rec[start:]] for rec in records[1:]])
    return records[0], [rec[0] for rec in records[1:]] if labels else None, data


class TestCsvCParse:
    # (body, labels, parsed by the C reader): tokens that reader rejects go
    # to the csv and float() pass, which must accept what float() accepts.
    CASES = [
        ("a,b\n1_000,2\n3,4\n", False, False),
        ("a,b\n1,\u0661\u0662\n", False, False),
        ("a,b\n 7 ,+3\n.5,5.\n", False, True),
        ("a,b\r\n1.25,-2\r\n\r\n3,4e-3\r\n", False, True),
        ('a,b\n"1.5",2\n3,"-4e-3"\n', False, True),
        ('id,f1,f2\n"sub,01",1,2\nplain,3,4\n', True, True),
        ('id,f1\r\n"a,b",1_0\r\nc,2\r\n', True, False),
        ("a,b,c\n1,2,3\n", False, True),
        ("a\n1\n2\n", False, True),
        ("id,f\nx,0.1\n", True, True),
        ('"a,b",c\n1,2\n', False, False),
        ("id\na\nb\n", True, False),  # no value column
        ("id,f1,f2\ra,1,2\rb,3,4\r", True, True),
        ("id,f1,f2\r\na,1,2\r\nb,3,4", True, True),
        ("id,f1\n\na,1\n\n\nb,2\n\n\n", True, True),
        ("id,f1\r\r\ra,1\r\rb,2\r\r", True, True),
        # Quoted ids after row 1, one of them holding a line break.
        ('id,f1,f2\na,1,2\nb,3,4\n"c,d",5,6\ne,7,8\n', True, True),
        ('id,f1\r\na,1\r\n"b\r\nc",2\r\n"d""e",3\r\n', True, True),
    ]

    @pytest.mark.parametrize("body, labels, c_parse", CASES)
    def test_agrees_with_float_bit_for_bit(self, tmp_path, body, labels, c_parse):
        path = tmp_path / "t.csv"
        path.write_bytes(body.encode("utf-8"))
        expected = float_reference(body, labels)
        with mock.patch.object(matrixio, "_read_csv_float",
                               wraps=matrixio._read_csv_float) as fallback:
            header, ids, data = read_csv(str(path), labels=labels)
        assert fallback.called != c_parse
        assert (header, ids) == expected[:2]
        assert data.shape == expected[2].shape and data.tobytes() == expected[2].tobytes()

    @pytest.mark.parametrize("body, message", [
        ("a,b\n1,2\n#1,3\n", r"t\.csv:3: cannot parse value '#1' in column 'a'$"),
        ("a\n#1\n", r"t\.csv:2: cannot parse value '#1' in column 'a'$"),
        ("a,b\n1,2\n3,4,5\n", r"t\.csv:3: expected 2 fields, got 3"),
        ("a,b,c\n1,2\n", r"t\.csv:2: expected 3 fields, got 2"),
        ("a\n1\n \n", r"t\.csv:3: cannot parse value ' ' in column 'a'$"),
    ])
    def test_rejected_by_both_passes(self, tmp_path, body, message):
        # A cell beginning with "#" is a bad cell, not a comment.
        path = tmp_path / "t.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            read_csv(str(path), labels=False)

    def test_labelled_row_with_surplus_field_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,f1\na,1\nb,2,3\n")
        with pytest.raises(ValueError, match=r"t\.csv:3: expected 2 fields, got 3"):
            read_csv(str(path), labels=True)

    @pytest.mark.parametrize("body, message", [
        ("id,f1\n", r"t\.csv: no data rows$"),
        ("id,f1\r\n\r\n\n\r", r"t\.csv: no data rows$"),
        ('id,f1\na,1\n"b",2,3\n', r"t\.csv:3: expected 2 fields, got 3$"),
        ("id,f1\ra,1\rb\r", r"t\.csv:3: expected 2 fields, got 1$"),
    ])
    def test_labelled_errors_name_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(body.encode("utf-8"))
        with pytest.raises(ValueError, match=message):
            read_csv(str(path), labels=True)

    @pytest.mark.parametrize("early", [b"", b"w,1\n", b"w,1,2,3\n"])
    def test_non_utf8_byte_past_1_mib_named(self, tmp_path, early):
        # Also after a row of the wrong width, which the C reader rejects
        # (one field short) or the id pass would (one too many).
        rows = b"".join(b"s%d,1.5,2.5\n" % i for i in range(100_000))
        assert len(rows) > 2**20
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,f1,f2\na,1,2\n" + early + rows + b"t,\xff,1\n")
        with pytest.raises(ValueError) as exc:
            read_csv(str(path), labels=True)
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("labels", [True, False])
    def test_peak_memory_is_about_the_matrix(self, tmp_path, labels):
        # The reader streams: it never holds the file whole, as text or as
        # csv records.
        values = np.random.default_rng(3).standard_normal((100, 5000))
        path = tmp_path / "m.csv"
        header = ["id"] * labels + [f"f{j}" for j in range(values.shape[1])]
        write_csv(str(path), header,
                  ([f"s{i}"] * labels + row for i, row in enumerate(values.tolist())))
        tracemalloc.start()
        try:
            data = read_csv(str(path), labels=labels)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.tobytes() == values.tobytes()
        assert peak < 3 * data.nbytes


class TestBinaryIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        m = fm(rng.standard_normal((50, 20)) * 10.0 ** rng.integers(-8, 8, (50, 20)))
        path = tmp_path / "m.bin"
        save_matrix(m, path)
        assert path.read_bytes().startswith(matrixio.BIN_MAGIC)
        back = load_matrix(path)
        assert back.subject_ids == m.subject_ids
        assert np.array_equal(
            back.data.view(np.uint64), m.data.view(np.uint64)
        ), "binary round trip must be bit-exact"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_matrix(str(path))

    def test_non_utf8_id_block_named(self, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(fm(np.ones((2, 2)), ids=("a", "b")), str(path))
        blob = path.read_bytes()
        assert blob.endswith(b"a\nb")
        path.write_bytes(blob[:-3] + b"\xff\nb")
        with pytest.raises(ValueError) as exc:
            load_matrix(str(path))
        assert str(exc.value) == f"{path}: subject-id block not UTF-8 text (invalid start byte)"

    def test_truncation(self, tmp_path):
        m = fm(np.ones((3, 2)))
        path = tmp_path / "m.bin"
        save_matrix(m, str(path))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_matrix(str(path))


class TestPair:
    def test_reorders_by_id(self):
        x = fm([[1.0], [2.0], [3.0]], ids=("a", "b", "c"))
        y = fm([[30.0], [10.0], [20.0]], ids=("c", "a", "b"))
        ds = pair(x, y)
        assert ds.y.subject_ids == ("a", "b", "c")
        np.testing.assert_array_equal(ds.y.data[:, 0], [10.0, 20.0, 30.0])

    def test_identity_when_aligned(self):
        x = fm([[1.0], [2.0]], ids=("a", "b"))
        y = fm([[5.0], [6.0]], ids=("a", "b"))
        ds = pair(x, y)
        assert ds.y is y

    def test_mismatch_reports_symmetric_difference(self):
        x = fm([[1.0], [2.0]], ids=("a", "b"))
        y = fm([[1.0], [2.0]], ids=("a", "z"))
        with pytest.raises(ValueError, match=r"\['b', 'z'\]"):
            pair(x, y)

    def test_alignment_invariant_random_permutations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            x = fm(rng.standard_normal((n, 3)))
            perm = rng.permutation(n)
            y = FeatureMatrix(
                rng.standard_normal((n, 2))[perm],
                tuple(np.array(x.subject_ids)[perm]),
            )
            ds = pair(x, y)
            assert ds.x.subject_ids == ds.y.subject_ids


def standardized(data):
    """The columns of data standardized by their own fitted statistics."""
    std = ColumnStandardizer.fit(data)
    return std.apply(data), std


class TestStandardize:
    def test_simple_column(self):
        out, std = standardized(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
        assert std.kept.tolist() == [0]

    def test_moments(self):
        out, _ = standardized(np.random.default_rng(5).standard_normal((100, 30)) * 3 + 1)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(out.std(axis=0, ddof=1) - 1.0) < 1e-12)

    def test_idempotent(self):
        once, _ = standardized(np.random.default_rng(6).standard_normal((50, 8)))
        twice, _ = standardized(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_zero_variance_column_dropped_with_manifest(self):
        data = np.random.default_rng(8).standard_normal((20, 4))
        data[:, 2] = 7.0
        with pytest.warns(RuntimeWarning, match="zero-variance"):
            out, std = standardized(data)
        assert std.kept.tolist() == [0, 1, 3]
        assert out.shape == (20, 3)

    def test_all_constant_errors(self):
        with pytest.raises(ValueError, match="zero variance"):
            ColumnStandardizer.fit(np.ones((5, 3)))

    def test_apply_uses_fitted_stats(self):
        rng = np.random.default_rng(9)
        train = rng.standard_normal((30, 5)) * 2 + 4
        std = ColumnStandardizer.fit(train)
        new = rng.standard_normal((10, 5))
        np.testing.assert_allclose(std.apply(new), (new - train.mean(0)) / train.std(0, ddof=1))


class TestPairedDataset:
    def test_rejects_misaligned(self):
        x = fm([[1.0], [2.0]], ids=("a", "b"))
        y = fm([[1.0], [2.0]], ids=("b", "a"))
        with pytest.raises(ValueError, match="identical subject id order"):
            PairedDataset(x, y)
