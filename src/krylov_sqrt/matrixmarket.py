"""MatrixMarket files through :mod:`scipy.io` (NISTIR 5935 format).

The reader takes ``array`` and ``coordinate`` files with ``real``,
``integer`` or ``complex`` values in any symmetry (stored triangles are
expanded) and returns a dense float64 or complex128 array; blank lines
may appear anywhere, ``%`` comments only before the size line.  The
writer always stores every entry (``general``), in shortest round-trip
form, so a write/read cycle reproduces every float64 bit-exactly except
the sign of a zero, which reads back as +0.0.  ``scipy.io`` is imported
on first use to keep ``import krylov_sqrt`` fast.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .linalg import as_operator


def write_matrix_market(path, M, comment: str | None = None) -> None:
    """Write a vector (as one column), an array or an operator: ``array``
    format, or ``coordinate`` with only the diagonals of an operator with
    ``bands``."""
    import scipy.io
    import scipy.sparse

    if np.ndim(M) == 0:  # an operator, not an array
        op = as_operator(M)
        M = op.to_dense() if op.bands is None else scipy.sparse.diags(op.bands, [-1, 0, 1])
    elif np.ndim(M) == 1:
        M = np.reshape(M, (-1, 1))
    scipy.io.mmwrite(path, M, comment=comment, symmetry="general")


def read_matrix_market(path) -> np.ndarray:
    """A MatrixMarket file as a dense float64 or complex128 ndarray; a
    malformed or ``pattern`` file raises DomainError naming the path."""
    import scipy.io
    import scipy.sparse

    try:
        if scipy.io.mminfo(path)[4] == "pattern":
            raise DomainError(f"{path}: a pattern MatrixMarket file has no values")
        a = scipy.io.mmread(path)
    except ValueError as exc:
        raise DomainError(f"{path}: malformed MatrixMarket file: {exc}") from exc
    a = a.toarray() if scipy.sparse.issparse(a) else a
    return np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
