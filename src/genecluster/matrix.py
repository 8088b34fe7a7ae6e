"""Expression matrix data model.

Parsing, missing-value filtering, per-condition min-max normalization and
discretization of expression profiles into -1/0/+1 regulation patterns.
Matrices are immutable after construction; every operation returns a new one.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import EmptyMatrixError, ParseError, ValidationError, bad_id, frozen_array

GENES_AS_ROWS = "genes-as-rows"
GENES_AS_COLUMNS = "genes-as-columns"
ORIENTATIONS = (GENES_AS_ROWS, GENES_AS_COLUMNS)

MISSING_OUTPUT_TOKEN = "NA"

# The missing-entry spellings that float() rejects ("" and "na" in every
# case), mapped to one it reads as NaN; float() already reads every "nan".
_MISSING_AS_NAN = {"": "nan", "na": "nan", "nA": "nan", "Na": "nan", "NA": "nan"}

# The characters a written number cell can hold, including its NA token.
_NUMBER_CHARS = frozenset("0123456789.+-eEinfaNA")

# The text of each regulation code, keyed by its byte in an int8 array (-1 is 255).
_CODE_TEXT = {0: "0", 1: "1", 255: "-1"}


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
        object.__setattr__(self, "values", frozen_array(self.values, self._dtype, "values"))
        if self.values.ndim != 2:
            raise ValidationError("values must be a 2-d array")
        if self.values.shape != (len(self.gene_ids), len(self.condition_ids)):
            raise ValidationError(
                f"value shape {self.values.shape} does not match "
                f"{len(self.gene_ids)} genes x {len(self.condition_ids)} conditions"
            )
        if self.n_genes == 0 or self.n_conditions == 0:
            raise ValidationError("matrix must have at least one gene and one condition")
        if fault := bad_id(self.gene_ids, "gene") or bad_id(self.condition_ids, "condition"):
            raise ValidationError(fault[1])

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
        # checked before the int8 cast, which would turn 1.5, 257 or NaN into a code
        if not np.isin(frozen_array(self.values, None, "values"), (-1, 0, 1)).all():
            raise ValidationError("discretized entries must be -1, 0 or +1")
        super().__post_init__()


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
    try:
        return float(_MISSING_AS_NAN.get(token, token))
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


def check_delimiter(delimiter):
    """Refuse a field delimiter unless it is one character other than the
    csv quote character and a line break."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValidationError(f"delimiter must be one character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise ValidationError(
            f"delimiter cannot be the quote character or a line break, got {delimiter!r}"
        )


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

    Rows are read one at a time and appended to one array of doubles, each
    row converted by one float() pass; a row that pass rejects is tried
    again with its bare missing tokens read as "nan", and a row that still
    fails (a padded missing token, a bad cell) is converted cell by cell,
    which names the bad cell.  A repeated id, or one holding "\r", is then
    a ParseError at its line (and header field).
    """
    if orientation not in ORIENTATIONS:
        raise ValidationError(f"unknown orientation: {orientation!r}")
    check_delimiter(delimiter)
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
        values = array("d")
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
                values.fromlist(list(map(float, cells)))
            except ValueError:
                try:
                    values.fromlist(list(map(float, map(_MISSING_AS_NAN.get, cells, cells))))
                except ValueError:
                    values.fromlist([
                        _parse_cell(field, line_no, col_ids[j])
                        for j, field in enumerate(cells)
                    ])
            row_ids.append(row_id)
    except ParseError:
        # a csv error later in the text takes precedence, as it did when every
        # record was read before any was checked
        for _ in records:
            pass
        raise
    if not row_ids:
        raise ParseError("no data rows after the header")
    values = np.frombuffer(values).reshape(len(row_ids), len(col_ids))
    infinite = np.argwhere(np.isinf(values))
    if len(infinite):
        r, c = infinite[0]
        line_no, row = next(itertools.islice(_records(text, delimiter), 1 + r, None))
        raise ParseError(
            f"column {col_ids[c]!r}: not a finite number: {row[1 + c].strip()!r}",
            line=line_no,
        )
    flip = orientation == GENES_AS_COLUMNS
    genes, conditions = (col_ids, tuple(row_ids)) if flip else (tuple(row_ids), col_ids)
    for ids, kind, in_header in ((genes, "gene", flip), (conditions, "condition", not flip)):
        if fault := bad_id(ids, kind):
            i, message = fault
            if in_header:
                raise ParseError(f"header field {i + 2}: {message}", line=header_no)
            line_no, _ = next(itertools.islice(_records(text, delimiter), 1 + i, None))
            raise ParseError(message, line=line_no)
    return ExpressionMatrix(genes, conditions, values.T if flip else values)


def _infer_delimiter(path):
    return "," if Path(path).suffix.lower() == ".csv" else "\t"


def read_utf8(path):
    """UTF-8 text of a file, newlines untranslated and a leading BOM dropped;
    a bad byte is a ParseError at its line."""
    data = Path(path).read_bytes()
    try:
        # not "utf-8-sig": its err.start would count from after the BOM
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(f"not UTF-8 text: byte {data[err.start]:#04x}", line) from None


def read_matrix(path, orientation=GENES_AS_ROWS, delimiter=None):
    """Read a UTF-8 matrix file; delimiter comes from the extension unless given.

    The file's characters reach parse_matrix as they are: no newline
    translation, so a quoted "\r" stays one and a line ending in a bare "\r"
    is a csv error.
    """
    if delimiter is None:
        delimiter = _infer_delimiter(path)
    return parse_matrix(read_utf8(path), orientation, delimiter)


def _matrix_lines(m, delimiter):
    """The lines of a matrix's delimited text, each ending in "\n".

    Floats use repr so that a write/read round trip reproduces the exact
    values, and a missing entry is written as NA; discretized matrices are
    written as bare integers.  A row of floats gets its cells from one C
    call, str(row.tolist()); a row of codes looks each cell up in a
    three-entry table.  Cells are joined by the delimiter without csv: a
    number cell needs quoting only when the delimiter is a character
    numbers are written with.  Under such a delimiter the code table holds
    the quoted codes, and every row of floats goes through csv.writer.  The
    header and an id that needs quoting go through csv.writer too.
    """
    # writerow returns what its file's write returns: with str, the line itself
    writer = csv.writer(SimpleNamespace(write=str), delimiter=delimiter, lineterminator="\n")
    line = writer.writerow
    yield line(["id", *m.condition_ids])
    quoting_chars = frozenset((delimiter, '"', "\n"))

    def plain(gid):
        return isinstance(gid, str) and quoting_chars.isdisjoint(gid)

    if isinstance(m, DiscretizedMatrix):
        code_cells = {b: f'"{c}"' if delimiter in c else c for b, c in _CODE_TEXT.items()}
        for gid, row in zip(m.gene_ids, m.values):
            if plain(gid):
                cells = delimiter.join(map(code_cells.__getitem__, row.tobytes()))
                yield f"{gid}{delimiter}{cells}\n"
            else:
                yield line([gid, *map(_CODE_TEXT.__getitem__, row.tobytes())])
        return
    quote_cells = delimiter in _NUMBER_CHARS
    has_nan = np.isnan(m.values).any(axis=1)
    for gid, row, nan in zip(m.gene_ids, m.values, has_nan):
        cells = str(row.tolist())[1:-1]
        if nan:
            cells = cells.replace("nan", MISSING_OUTPUT_TOKEN)
        if quote_cells or not plain(gid):
            yield line([gid, *cells.split(", ")])
        else:
            yield f"{gid}{delimiter}{cells.replace(', ', delimiter)}\n"


def matrix_to_text(m, delimiter="\t"):
    """Render a matrix (expression or discretized) back to delimited text,
    the lines that write_matrix writes."""
    check_delimiter(delimiter)
    return "".join(_matrix_lines(m, delimiter))


def write_new_file(path, text):
    """Write text, a str or an iterable of str, to path as a new file,
    unlinking any old file there first.

    An iterable is written one item at a time, so its whole text is never
    held at once.  Truncating a file that was written moments before can
    stall for tens to hundreds of milliseconds (measured on ext4); writing
    a new file does not.  A hard link to the old file keeps the old bytes.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.writelines((text,) if isinstance(text, str) else text)


def write_matrix(m, path, delimiter=None):
    """Write a matrix to path one line at a time; the delimiter comes from
    the extension unless given."""
    if delimiter is None:
        delimiter = _infer_delimiter(path)
    check_delimiter(delimiter)  # before write_new_file unlinks the old file
    write_new_file(path, _matrix_lines(m, delimiter))


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


def _require_complete(m):
    if not m.is_complete:
        raise ValidationError("matrix has missing entries; drop incomplete genes first")


def min_max_normalize(m, params=NormalizationParams()):
    """Rescale every condition column linearly onto [new_min, new_max].

    Entries equal to their column's maximum are then set to exactly
    new_max, and after them those equal to its minimum to exactly new_min,
    so a constant column, which carries no contrast, maps wholly to new_min
    (with a warning).  The input must be complete, and a column whose range
    (max - min) overflows a float is rejected.
    """
    _require_complete(m)
    v = m.values
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    overflow = np.isinf(span)
    if overflow.any():
        names = ", ".join(itertools.compress(m.condition_ids, overflow))
        raise ValidationError(f"range of condition column(s) overflows a float: {names}")
    constant = span == 0
    if constant.any():
        names = ", ".join(itertools.compress(m.condition_ids, constant))
        warnings.warn(f"constant condition column(s) mapped to new_min: {names}", stacklevel=2)
    t = (v - lo) / np.where(constant, 1.0, span)
    out = params.new_min + t * (params.new_max - params.new_min)
    np.clip(out, params.new_min, params.new_max, out=out)
    # pin the extremes so the endpoints are exact, not just within rounding;
    # the minimum's pin comes last, so it also maps a constant column
    out[v == hi] = params.new_max
    out[v == lo] = params.new_min
    return ExpressionMatrix(m.gene_ids, m.condition_ids, out)


def discretize(m):
    """Reduce each profile to a regulation pattern over {-1, 0, +1}.

    Each code is the sign of the change from the previous condition (+1
    risen, 0 unchanged, -1 fallen), a zero standing before the first, so
    the first code is the sign of the first value.
    """
    _require_complete(m)
    codes = np.sign(np.diff(m.values, axis=1, prepend=0.0))
    return DiscretizedMatrix(m.gene_ids, m.condition_ids, codes.astype(np.int8))
