"""Feature-matrix data model, CSV/binary I/O and column standardization.

A FeatureMatrix is an n-subjects x d-features array with unique string
subject identifiers.  Subject alignment between two modalities is always by
identifier, never by row position, because the two modalities typically
arrive from separate files.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

BIN_MAGIC = b"HDPR1\x00"


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-subject feature matrix (rows = subjects, columns = features).

    All entries must be finite and subject_ids must be unique with one id
    per row.  Instances are immutable (the array is marked read-only) and
    safe to share across threads.
    """

    data: np.ndarray
    subject_ids: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {data.shape}")
        n, d = data.shape
        if n < 1 or d < 1:
            raise ValueError(f"feature matrix must be non-empty, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            i, j = np.argwhere(~np.isfinite(data))[0]
            raise ValueError(
                f"non-finite entry at row {i} (subject index), column {j}"
            )
        ids = tuple(str(s) for s in self.subject_ids)
        if len(ids) != n:
            raise ValueError(f"{len(ids)} subject ids for {n} rows")
        if len(set(ids)) != len(ids):
            dup = sorted({s for s in ids if ids.count(s) > 1})
            raise ValueError(f"duplicate subject ids: {dup}")
        if any("\n" in s or "\r" in s for s in ids):
            raise ValueError("subject ids must not contain line breaks")
        object.__setattr__(self, "data", _as_readonly(data))
        object.__setattr__(self, "subject_ids", ids)

    @property
    def n_subjects(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class PairedDataset:
    """Two feature matrices over the same subjects, row-aligned by id."""

    x: FeatureMatrix
    y: FeatureMatrix

    def __post_init__(self):
        if self.x.subject_ids != self.y.subject_ids:
            raise ValueError("paired matrices must have identical subject id order")


def pair(x: FeatureMatrix, y: FeatureMatrix) -> PairedDataset:
    """Align y's rows to x's subject-id order and return the paired dataset.

    Raises if the two id sets differ; the error lists the symmetric
    difference so the offending subjects are identifiable.
    """
    if set(x.subject_ids) != set(y.subject_ids):
        diff = sorted(set(x.subject_ids) ^ set(y.subject_ids))
        raise ValueError(f"subject id sets differ; symmetric difference: {diff}")
    if x.subject_ids == y.subject_ids:
        return PairedDataset(x, y)
    pos = {s: i for i, s in enumerate(y.subject_ids)}
    order = [pos[s] for s in x.subject_ids]
    y_aligned = FeatureMatrix(y.data[order], x.subject_ids)
    return PairedDataset(x, y_aligned)


@dataclass(frozen=True)
class ColumnStandardizer:
    """Column means and sample sds (divide by n-1) fitted on one matrix,
    applicable to another.

    `kept` is the manifest of retained column indices; zero-variance columns
    are dropped rather than erroring because real fingerprint data contains
    dead features.
    """

    mean: np.ndarray
    sd: np.ndarray
    kept: np.ndarray
    n_columns: int

    @classmethod
    def fit(cls, data: np.ndarray) -> "ColumnStandardizer":
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 2:
            raise ValueError("standardization needs a 2-D matrix with >= 2 rows")
        mean = data.mean(axis=0)
        sd = data.std(axis=0, ddof=1)
        kept = np.flatnonzero(sd > 0.0)
        if kept.size == 0:
            raise ValueError("all columns have zero variance; nothing to standardize")
        if kept.size < data.shape[1]:
            dropped = np.setdiff1d(np.arange(data.shape[1]), kept)
            warnings.warn(
                f"dropping {dropped.size} zero-variance columns "
                f"(indices {dropped[:10].tolist()}{'...' if dropped.size > 10 else ''})",
                RuntimeWarning,
                stacklevel=3,
            )
        return cls(mean=mean[kept], sd=sd[kept], kept=kept, n_columns=data.shape[1])

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Standardize new rows with the fitted means/sds (leakage-free)."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.n_columns:
            raise ValueError(
                f"expected {self.n_columns} columns, got {data.shape[1] if data.ndim == 2 else data.shape}"
            )
        return (data[:, self.kept] - self.mean) / self.sd


# ---------------------------------------------------------------------------
# I/O: the one CSV writer and reader, and the binary matrix format.
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    # repr(float(v)): np.float64 subclasses float, but its own repr is
    # "np.float64(...)" under numpy 2.
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a header row and data rows, creating the parent directory.  A
    field is quoted only when it holds a comma, a quote or a newline."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def read_csv(path: str, labels: bool) -> tuple[list[str], list[str] | None, np.ndarray]:
    """Numeric CSV with one header row; blank lines are skipped.

    Returns (header, labels, data).  With `labels` the first column holds
    row labels (subject ids), else every column is numeric and labels is
    None.  Cells parse as float() parses them.  An error names the file and
    the line; a bad cell also its column and, in a labelled file, its
    subject.  A file that is not UTF-8 is an error that names the file.

    In a well-formed file numpy's C reader parses the values; in a labelled
    one csv reads the ids and checks each row's width.  Any other file is
    read again by csv and float(): that pass also accepts the tokens
    float() accepts and the C reader rejects (`1_000`, non-ASCII digits),
    and it names the first bad cell.
    """
    start = 1 if labels else 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            parsed = _read_csv_c(f, start)
            if parsed is None:
                f.seek(0)
                parsed = _read_csv_float(path, f, start)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parsed


def _read_csv_c(f, start: int):
    """(header, labels, data) of a well-formed file by np.loadtxt, or None
    where the csv and float() pass must decide: a quoted header (it may
    span lines), no data rows, a token the C reader rejects, a row of the
    wrong width or a non-finite cell."""
    line = f.readline()
    while line and not line.strip("\r\n"):  # csv skips blank records
        line = f.readline()
    if not line or '"' in line:
        return None
    header = line.rstrip("\r\n").split(",")  # what csv makes of an unquoted line
    body = f.read()
    if len(header) <= start or not body.strip("\r\n"):
        return None
    try:
        # comments=None: a cell that begins with "#" is a bad cell, not a comment.
        data = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", comments=None,
                          quotechar='"', ndmin=2,
                          usecols=range(start, len(header)) if start else None)
    except ValueError:
        return None
    if data.shape[1] != len(header) - start or not np.isfinite(data).all():
        return None
    if not start:
        return header, None, data
    # loadtxt skips the id column and ignores surplus fields; csv reads the
    # ids and checks every row's width.
    records = [rec for rec in csv.reader(io.StringIO(body, newline="")) if rec]
    if len(records) != len(data) or any(len(rec) != len(header) for rec in records):
        return None
    return header, [rec[0] for rec in records], data


def _read_csv_float(path: str, f, start: int):
    """read_csv by csv and float(), cell by cell; raises at the first bad line or cell."""
    reader = csv.reader(f)
    header = next(filter(None, reader), None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    rows = []  # (line number, record)
    for rec in filter(None, reader):
        if len(rec) != len(header):
            raise ValueError(
                f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(rec)}"
            )
        rows.append((reader.line_num, rec))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.empty((len(rows), len(header) - start))
    for (line, rec), out in zip(rows, data):
        for j, tok in enumerate(rec[start:]):
            try:
                out[j] = float(tok)
                problem = None if math.isfinite(out[j]) else "non-finite"
            except ValueError:
                problem = "cannot parse"
            if problem:
                subject = f" for subject {rec[0]!r}" if start else ""
                raise ValueError(f"{path}:{line}: {problem} value {tok!r} in column "
                                 f"{header[start + j]!r}{subject}")
    return header, [rec[0] for _, rec in rows] if start else None, data


def _load_csv(path: str) -> FeatureMatrix:
    header, ids, data = read_csv(path, labels=True)
    if header[0] != "id":
        raise ValueError(f"{path}: first header column must be 'id', got {header[:1]}")
    try:
        return FeatureMatrix(data, tuple(ids))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_bin(path: str) -> FeatureMatrix:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(BIN_MAGIC)] != BIN_MAGIC:
        raise ValueError(f"{path}: bad magic bytes, not a binary matrix file")
    off = len(BIN_MAGIC)
    if len(blob) < off + 16:
        raise ValueError(f"{path}: truncated header")
    n, d = struct.unpack_from("<QQ", blob, off)
    off += 16
    payload = n * d * 8
    if len(blob) < off + payload + 8:
        raise ValueError(f"{path}: truncated payload ({n}x{d})")
    data = np.frombuffer(blob, dtype="<f8", count=n * d, offset=off).reshape(n, d)
    off += payload
    (id_len,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if len(blob) < off + id_len:
        raise ValueError(f"{path}: truncated subject-id block")
    try:
        ids = tuple(blob[off : off + id_len].decode("utf-8").split("\n"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: subject-id block not UTF-8 text ({exc.reason})") from None
    if len(ids) != n:
        raise ValueError(f"{path}: {len(ids)} subject ids for {n} rows")
    return FeatureMatrix(data, ids)


def _is_csv(path: str) -> bool:
    """The one format rule: a path ending in ".csv" names a CSV feature
    matrix, any other path the binary format."""
    return str(path).endswith(".csv")


def load_matrix(path: str) -> FeatureMatrix:
    """Load a FeatureMatrix, as CSV or binary by its path (see _is_csv).

    CSV: header row required, first column named "id", remaining columns
    numeric (UTF-8, '.' decimal separator).  Binary: see save_matrix.
    """
    return _load_csv(path) if _is_csv(path) else _load_bin(path)


def save_matrix(m: FeatureMatrix, path: str) -> None:
    """Write a FeatureMatrix, as CSV or binary by its path (see _is_csv).

    CSV: header "id,f1,...,fd", one row per subject.  Binary layout: magic
    "HDPR1\\0", u64-LE row count, u64-LE column count, row-major IEEE-754
    little-endian f64 payload, then a u64-LE byte-length prefix followed by
    the newline-separated UTF-8 subject-id block.  Round-trips finite
    doubles bit-exactly.  Creates the parent directory.
    """
    if _is_csv(path):
        header = ["id"] + [f"f{j + 1}" for j in range(m.n_features)]
        write_csv(path, header,
                  ([sid, *row] for sid, row in zip(m.subject_ids, m.data.tolist())))
        return
    ids_block = "\n".join(m.subject_ids).encode("utf-8")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as f:
        f.write(BIN_MAGIC)
        f.write(struct.pack("<QQ", m.n_subjects, m.n_features))
        f.write(np.ascontiguousarray(m.data, dtype="<f8").tobytes())
        f.write(struct.pack("<Q", len(ids_block)))
        f.write(ids_block)
