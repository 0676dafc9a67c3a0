"""Minimal MatrixMarket reader/writer for interchange and debugging.

Supports the ``array`` and ``coordinate`` formats with real or complex
general entries.  Values are written with Python's shortest round-trip
float repr, so a write/read cycle reproduces every float64 bit-exactly.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import as_operator

_HEADER = "%%MatrixMarket matrix"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_matrix_market(path, M, comment: str | None = None) -> None:
    """Write a vector, an array or an operator in MatrixMarket text format.

    Arrays and dense operators use the ``array`` format (column-major
    values, ``real`` or ``complex`` by dtype); a tridiagonal operator uses
    ``coordinate`` with only the stored diagonals.
    """
    if np.ndim(M) == 0:  # an operator, not an array
        op = as_operator(M)
        if op.bands is not None:
            _write_coordinate(path, op.bands, comment)
            return
        M = op.to_dense()
    a = np.asarray(M)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatch("expected a matrix or vector")
    field = "complex" if np.iscomplexobj(a) else "real"
    values = a.ravel(order="F")
    body = ([f"{_fmt(v.real)} {_fmt(v.imag)}" for v in values] if field == "complex"
            else [_fmt(v) for v in values])
    _write(path, f"array {field} general", comment, [f"{a.shape[0]} {a.shape[1]}"] + body)


def _write_coordinate(path, bands, comment: str | None) -> None:
    lower, diag, upper = bands
    m = diag.shape[0]
    i = range(1, m + 1)
    entries = sorted([*zip(i, i, diag), *zip(i[1:], i, lower), *zip(i, i[1:], upper)])
    _write(path, "coordinate real general", comment,
           [f"{m} {m} {len(entries)}"] + [f"{i} {j} {_fmt(v)}" for i, j, v in entries])


def _write(path, header: str, comment: str | None, body: list) -> None:
    lines = [f"{_HEADER} {header}"]
    if comment:
        lines.extend(f"%{line}" for line in comment.splitlines())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines + body) + "\n")


def read_matrix_market(path) -> np.ndarray:
    """Read an ``array`` or ``coordinate`` MatrixMarket file into a dense
    ndarray (real or complex).

    The data block is parsed by one NumPy call; blank lines and ``%``
    comment lines may appear anywhere after the header.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split()
        if len(header) < 5 or " ".join(header[:2]) != _HEADER:
            raise DomainError("not a MatrixMarket matrix file")
        fmt, field, symmetry = header[2], header[3], header[4]
        if fmt not in ("array", "coordinate"):
            raise DomainError(f"unsupported MatrixMarket format {fmt!r}")
        if field not in ("real", "complex", "integer"):
            raise DomainError(f"unsupported MatrixMarket field {field!r}")
        if symmetry != "general":
            raise DomainError("only general symmetry is supported")
        line = fh.readline()
        while line.startswith("%") or (line and not line.strip()):
            line = fh.readline()
        sizes = line.split()
        rows, cols = int(sizes[0]), int(sizes[1])
        complex_field = field == "complex"
        index_cols = 0 if fmt == "array" else 2
        data = _read_data(fh, index_cols + (2 if complex_field else 1))
    values = data[:, index_cols]
    if complex_field:  # set the parts, since arithmetic would drop the sign of -0.0
        values = np.empty(len(data), dtype=np.complex128)
        values.real, values.imag = data[:, index_cols], data[:, index_cols + 1]
    if fmt == "array":
        if values.size != rows * cols:
            raise DomainError("array data length mismatch")
        return np.ascontiguousarray(values.reshape((cols, rows)).T)
    if values.size != int(sizes[2]):
        raise DomainError("coordinate entry count mismatch")
    idx = data[:, :2]
    if np.any(idx != np.floor(idx)) or np.any(idx < 1) or np.any(idx > (rows, cols)):
        raise DomainError("coordinate index is not an in-range integer")
    i, j = idx.astype(np.intp).T - 1
    a = np.zeros((rows, cols), dtype=np.complex128 if complex_field else np.float64)
    a[i, j] = values
    return a


def _read_data(fh, ncols: int) -> np.ndarray:
    """The rest of ``fh`` as a (lines, ncols) float64 array; tokens past
    column ``ncols`` are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty data block
        try:
            return np.loadtxt(fh, dtype=np.float64, comments="%", ndmin=2,
                              usecols=range(ncols))
        except ValueError as exc:
            raise DomainError(f"malformed MatrixMarket data: {exc}") from exc
