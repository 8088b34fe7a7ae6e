"""Expression matrix data model.

Parsing, missing-value filtering, per-condition min-max normalization and
discretization of expression profiles into -1/0/+1 regulation patterns.
Matrices are immutable after construction; every operation returns a new one.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyMatrixError, ParseError, ValidationError

GENES_AS_ROWS = "genes-as-rows"
GENES_AS_COLUMNS = "genes-as-columns"
ORIENTATIONS = (GENES_AS_ROWS, GENES_AS_COLUMNS)

# Missing-entry spellings, compared case-insensitively.
MISSING_TOKENS = frozenset({"", "na", "nan"})

MISSING_OUTPUT_TOKEN = "NA"

# The missing tokens that float() rejects, in every case, mapped to one it
# reads as NaN; float() already reads every spelling of "nan".
_MISSING_AS_NAN = {"": "nan", "na": "nan", "nA": "nan", "Na": "nan", "NA": "nan"}

# The characters a written number cell can hold, including its NA token.
_NUMBER_CHARS = frozenset("0123456789.+-eEinfaNA")


def _check_ids(labels, kind):
    r"""Ids are unique and hold no "\r": a csv writer leaves "\r" unquoted, so
    no file keeps it."""
    try:
        plain = len(set(labels)) == len(labels) and "\r" not in "".join(labels)
    except TypeError:  # an id that is not a str
        plain = False
    if plain:
        return
    # name the first offending id
    seen = set()
    for lab in labels:
        if lab in seen:
            raise ValidationError(f"duplicate {kind} id: {lab!r}")
        if "\r" in str(lab):
            raise ValidationError(f"{kind} id holds a carriage return: {lab!r}")
        seen.add(lab)


def _freeze(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _LabeledMatrix:
    """Genes-by-conditions values: at least one gene and one condition, unique ids."""

    gene_ids: tuple
    condition_ids: tuple
    values: np.ndarray

    _dtype = float

    def __post_init__(self):
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "condition_ids", tuple(self.condition_ids))
        object.__setattr__(self, "values", _freeze(self.values, self._dtype))
        if self.values.ndim != 2:
            raise ValidationError("values must be a 2-d array")
        if self.values.shape != (len(self.gene_ids), len(self.condition_ids)):
            raise ValidationError(
                f"value shape {self.values.shape} does not match "
                f"{len(self.gene_ids)} genes x {len(self.condition_ids)} conditions"
            )
        if self.n_genes == 0 or self.n_conditions == 0:
            raise ValidationError("matrix must have at least one gene and one condition")
        _check_ids(self.gene_ids, "gene")
        _check_ids(self.condition_ids, "condition")

    @property
    def n_genes(self):
        return len(self.gene_ids)

    @property
    def n_conditions(self):
        return len(self.condition_ids)

    @property
    def shape(self):
        return (self.n_genes, self.n_conditions)


class ExpressionMatrix(_LabeledMatrix):
    """Genes-by-conditions matrix of real values; NaN marks a missing entry."""

    @property
    def is_complete(self):
        """True when no entry is missing."""
        return not np.isnan(self.values).any()


class DiscretizedMatrix(_LabeledMatrix):
    """Genes-by-conditions matrix of regulation codes, every entry in {-1, 0, +1}."""

    _dtype = np.int8

    def __post_init__(self):
        super().__post_init__()
        if not np.isin(self.values, (-1, 0, 1)).all():
            raise ValidationError("discretized entries must be -1, 0 or +1")


@dataclass(frozen=True)
class NormalizationParams:
    """Target range for min-max normalization: finite new_min < new_max, and
    a width new_max - new_min that does not overflow a float."""

    new_min: float = 0.0
    new_max: float = 1.0

    def __post_init__(self):
        if not (self.new_min < self.new_max and math.isfinite(self.new_max - self.new_min)):
            raise ValidationError(
                "need finite new_min < new_max with a finite width new_max - new_min,"
                f" got [{self.new_min}, {self.new_max}]"
            )


def _parse_cell(field, line_no, col_label):
    token = field.strip()
    if token.lower() in MISSING_TOKENS:
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"column {col_label!r}: not a number: {token!r}", line=line_no
        ) from None


def _lines(text):
    r"""The lines of text, each keeping its "\n", as io.StringIO(text) yields them.

    Only "\n" ends a line; str.splitlines would also split on "\r", "\x0b",
    "\x0c", "\x1c"-"\x1e", "\x85" and "\u2028".
    """
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def _records(text, delimiter):
    """(line, fields) for every non-empty csv record of text; line is the
    file line the record ends on.  A csv error is a ParseError at the line
    the reader stopped on."""
    reader = csv.reader(_lines(text), delimiter=delimiter)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as err:
        raise ParseError(str(err), line=reader.line_num) from None


def parse_matrix(text, orientation=GENES_AS_ROWS, delimiter="\t"):
    """Parse delimited text into an ExpressionMatrix.

    The header row holds a corner label followed by the ids of whatever the
    file's columns are; each data row starts with that row's id.  With
    orientation "genes-as-rows" file rows are genes and file columns are
    conditions; "genes-as-columns" is the transpose and is flipped into the
    canonical genes-by-conditions layout.  The orientation is never guessed.

    Rows are read one at a time into a preallocated float64 array, each row
    converted by one float() pass; a row that pass rejects is tried again
    with its bare missing tokens read as "nan", and a row that still fails
    (a padded missing token, a bad cell) is converted cell by cell, which
    names the bad cell.
    """
    if orientation not in ORIENTATIONS:
        raise ValidationError(f"unknown orientation: {orientation!r}")
    records = _records(text, delimiter)
    try:
        header_no, header = next(records, (None, None))
        if header is None:
            raise ParseError("empty input: no header row")
        if len(header) < 2:
            raise ParseError("header must contain at least one column id", line=header_no)
        col_ids = tuple(h.strip() for h in header[1:])
        if "" in col_ids:
            field = col_ids.index("") + 2
            raise ParseError(f"header field {field}: empty column id", line=header_no)
        # every record takes at least one line, so this bounds the data rows
        values = np.empty((text.count("\n") + 1, len(col_ids)))
        row_ids = []
        for line_no, row in records:
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=line_no
                )
            row_id = row[0].strip()
            if not row_id:
                raise ParseError("empty row id", line=line_no)
            cells = row[1:]
            try:
                values[len(row_ids)] = list(map(float, cells))
            except ValueError:
                try:
                    values[len(row_ids)] = list(
                        map(float, map(_MISSING_AS_NAN.get, cells, cells))
                    )
                except ValueError:
                    values[len(row_ids)] = [
                        _parse_cell(field, line_no, col_ids[j])
                        for j, field in enumerate(cells)
                    ]
            row_ids.append(row_id)
    except ParseError:
        # a csv error later in the text takes precedence, as it did when every
        # record was read before any was checked
        for _ in records:
            pass
        raise
    if not row_ids:
        raise ParseError("no data rows after the header")
    values = values[: len(row_ids)]
    infinite = np.argwhere(np.isinf(values))
    if len(infinite):
        r, c = infinite[0]
        line_no, row = next(itertools.islice(_records(text, delimiter), 1 + r, None))
        raise ParseError(
            f"column {col_ids[c]!r}: not a finite number: {row[1 + c].strip()!r}",
            line=line_no,
        )
    if orientation == GENES_AS_ROWS:
        return ExpressionMatrix(tuple(row_ids), col_ids, values)
    return ExpressionMatrix(col_ids, tuple(row_ids), values.T)


def _infer_delimiter(path):
    return "," if Path(path).suffix.lower() == ".csv" else "\t"


def read_matrix(path, orientation=GENES_AS_ROWS, delimiter=None):
    """Read a matrix file; delimiter comes from the extension unless given.

    The file's characters reach parse_matrix as they are: no newline
    translation, so a quoted "\r" stays one and a line ending in a bare "\r"
    is a csv error.
    """
    if delimiter is None:
        delimiter = _infer_delimiter(path)
    with open(path, newline="") as f:
        return parse_matrix(f.read(), orientation, delimiter)


def matrix_to_text(m, delimiter="\t"):
    """Render a matrix (expression or discretized) back to delimited text.

    Floats use repr so that a write/read round trip reproduces the exact
    values, and a missing entry is written as NA; discretized matrices are
    written as bare integers.  Each row's cells come from one C call,
    str(row.tolist()), and are joined by the delimiter without csv: a number
    cell needs quoting only when the delimiter is a character numbers are
    written with.  The header, an id that needs quoting, and every row under
    such a delimiter go through csv.writer.
    """
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["id", *m.condition_ids])
    quote_cells = delimiter in _NUMBER_CHARS
    quoting_chars = frozenset((delimiter, '"', "\n"))
    has_nan = np.isnan(m.values).any(axis=1)
    for gid, row, nan in zip(m.gene_ids, m.values, has_nan):
        cells = str(row.tolist())[1:-1]
        if nan:
            cells = cells.replace("nan", MISSING_OUTPUT_TOKEN)
        if quote_cells or not isinstance(gid, str) or not quoting_chars.isdisjoint(gid):
            writer.writerow([gid, *cells.split(", ")])
        else:
            out.write(f"{gid}{delimiter}{cells.replace(', ', delimiter)}\n")
    return out.getvalue()


def write_new_file(path, text):
    """Write text to path as a new file, unlinking any old file there first.

    Truncating a file that was written moments before can stall for tens to
    hundreds of milliseconds (measured on ext4); writing a new file does
    not.  A hard link to the old file keeps the old bytes.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text)


def write_matrix(m, path, delimiter=None):
    if delimiter is None:
        delimiter = _infer_delimiter(path)
    write_new_file(path, matrix_to_text(m, delimiter))


def drop_incomplete_genes(m):
    """Remove every gene row containing a missing entry.

    Raises EmptyMatrixError when nothing survives; idempotent otherwise.
    """
    keep = ~np.isnan(m.values).any(axis=1)
    if keep.all():
        return m
    if not keep.any():
        raise EmptyMatrixError("every gene has at least one missing entry")
    kept_ids = tuple(g for g, k in zip(m.gene_ids, keep) if k)
    return ExpressionMatrix(kept_ids, m.condition_ids, m.values[keep])


def subset_genes(m, gene_ids):
    """Row submatrix for the given gene ids, keeping the matrix's row order."""
    wanted = set(gene_ids)
    missing = wanted - set(m.gene_ids)
    if missing:
        raise KeyError(f"unknown gene ids: {sorted(missing)}")
    keep = [i for i, g in enumerate(m.gene_ids) if g in wanted]
    if not keep:
        raise EmptyMatrixError("gene subset is empty")
    kept_ids = tuple(m.gene_ids[i] for i in keep)
    return ExpressionMatrix(kept_ids, m.condition_ids, m.values[keep])


def min_max_normalize(m, params=NormalizationParams()):
    """Rescale every condition column linearly onto [new_min, new_max].

    A column's minimum maps to exactly new_min and its maximum to exactly
    new_max.  A constant column carries no contrast, so the whole column is
    mapped to new_min and a warning is emitted.  The input must be complete,
    and a column whose range (max - min) overflows a float is rejected.
    """
    if not m.is_complete:
        raise ValidationError("matrix has missing entries; drop incomplete genes first")
    v = m.values
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    overflow = np.isinf(span)
    if overflow.any():
        names = [c for c, flag in zip(m.condition_ids, overflow) if flag]
        raise ValidationError(
            f"range of condition column(s) overflows a float: {', '.join(names)}"
        )
    constant = span == 0
    if constant.any():
        names = [c for c, flag in zip(m.condition_ids, constant) if flag]
        warnings.warn(
            f"constant condition column(s) mapped to new_min: {', '.join(names)}",
            stacklevel=2,
        )
    t = np.zeros_like(v)
    np.divide(v - lo, span, out=t, where=~constant)
    out = params.new_min + t * (params.new_max - params.new_min)
    np.clip(out, params.new_min, params.new_max, out=out)
    # pin the extremes so the endpoints are exact, not just within rounding
    out[v == hi] = params.new_max
    out[v == lo] = params.new_min
    out[:, constant] = params.new_min
    return ExpressionMatrix(m.gene_ids, m.condition_ids, out)


def discretize(m):
    """Reduce each profile to a regulation pattern over {-1, 0, +1}.

    The first code is the sign of the value at the first condition; each
    later code is the sign of the change from the previous condition
    (+1 risen, 0 unchanged, -1 fallen).
    """
    if not m.is_complete:
        raise ValidationError("matrix has missing entries; drop incomplete genes first")
    first = np.sign(m.values[:, :1])
    if m.n_conditions == 1:
        codes = first
    else:
        codes = np.concatenate([first, np.sign(np.diff(m.values, axis=1))], axis=1)
    return DiscretizedMatrix(m.gene_ids, m.condition_ids, codes.astype(np.int8))
