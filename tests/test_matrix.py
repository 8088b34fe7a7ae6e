import csv
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genecluster import (
    DiscretizedMatrix,
    EmptyMatrixError,
    ExpressionMatrix,
    NormalizationParams,
    ParseError,
    ValidationError,
    discretize,
    drop_incomplete_genes,
    generate_synthetic,
    matrix_to_text,
    min_max_normalize,
    parse_matrix,
    read_matrix,
    subset_genes,
    write_matrix,
)
from genecluster.matrix import GENES_AS_COLUMNS, GENES_AS_ROWS, ORIENTATIONS, _lines

from helpers import oracle_matrix_to_text, oracle_parse_discretized, oracle_parse_matrix

SMALL_TSV = "id\tt1\tt2\ng1\t1.5\t2.0\ng2\t0.0\t-3.25\ng3\t4.0\t1.0\n"


def test_parse_small_tsv():
    m = parse_matrix(SMALL_TSV)
    assert m.gene_ids == ("g1", "g2", "g3")
    assert m.condition_ids == ("t1", "t2")
    assert m.values.tolist() == [[1.5, 2.0], [0.0, -3.25], [4.0, 1.0]]
    assert m.is_complete


def test_parse_missing_tokens_case_insensitive():
    text = "id\tt1\tt2\tt3\tt4\ng1\tNA\tnan\tNaN\t\ng2\tna\t1\t2\t3\n"
    m = parse_matrix(text)
    assert np.isnan(m.values[0]).all()
    assert np.isnan(m.values[1, 0])
    assert m.values[1, 1:].tolist() == [1.0, 2.0, 3.0]
    assert not m.is_complete


def test_parse_csv_delimiter():
    m = parse_matrix("id,t1,t2\ng1,1,2\n", delimiter=",")
    assert m.values.tolist() == [[1.0, 2.0]]


def test_parse_genes_as_columns_transposes():
    # conditions as file rows, genes as file columns
    genes = [f"g{i:04d}" for i in range(1, 518)]
    lines = ["id\t" + "\t".join(genes)]
    for j in range(17):
        lines.append(f"t{j + 1:02d}" + "".join(f"\t{j + i * 0.001}" for i in range(517)))
    m = parse_matrix("\n".join(lines), orientation="genes-as-columns")
    assert m.shape == (517, 17)
    assert m.gene_ids == tuple(genes)
    # entry (gene i, condition j) came from file row j, column i
    assert m.values[3, 2] == pytest.approx(2 + 3 * 0.001)


def test_parse_error_names_the_file_line_after_a_multi_line_record():
    # the quoted id "g\n1" spans lines 2-3, so the bad cell "x" is on line 4
    text = 'id\tt1\tt2\n"g\n1"\t1\t2\ng2\t1\tx\n'
    with pytest.raises(ParseError, match="^line 4: column 't2': not a number: 'x'$"):
        parse_matrix(text)
    text = 'id\tt1\tt2\n"g\n1"\t1\t2\ng2\t1\tinf\n'
    with pytest.raises(ParseError, match="^line 4: column 't2': not a finite number: 'inf'$"):
        parse_matrix(text)
    assert parse_matrix(text.replace("inf", "3")).gene_ids == ("g\n1", "g2")


@given(st.text(alphabet="ab\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_lines_split_as_stringio_iterates(text):
    assert list(_lines(text)) == list(io.StringIO(text))


def test_parse_unknown_orientation():
    with pytest.raises(ValidationError):
        parse_matrix(SMALL_TSV, orientation="sideways")


def test_parse_ragged_row_reports_line():
    text = "id\tt1\tt2\ng1\t1\t2\ng2\t3\n"
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_parse_non_numeric_reports_position():
    text = "id\tt1\tt2\ng1\t1\t2\ng2\tbogus\t4\n"
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert err.value.line == 3
    assert "t1" in str(err.value)
    assert "bogus" in str(err.value)


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "-INF", "1e999"])
def test_parse_rejects_non_finite_cell(token):
    text = f"id\tt1\tt2\ng1\t1\t2\ng2\t3\t{token}\ng3\tinf\t5\n"
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert err.value.line == 3
    assert "'t2'" in str(err.value)
    assert repr(token) in str(err.value)


def test_parse_rejects_non_finite_cell_in_genes_as_columns():
    text = "id\tg1\tg2\nt1\t1\t2\nt2\t-inf\t4\n"
    with pytest.raises(ParseError, match="line 3: column 'g1'"):
        parse_matrix(text, orientation="genes-as-columns")


@pytest.mark.parametrize("row_id", ["", "  "])
def test_parse_rejects_empty_row_id(row_id):
    text = f"id\tt1\tt2\ng1\t1\t2\n{row_id}\t1\t2\n"
    with pytest.raises(ParseError, match="line 3: empty row id"):
        parse_matrix(text)
    with pytest.raises(ParseError, match="line 3: empty row id"):
        parse_matrix(text, orientation="genes-as-columns")


@pytest.mark.parametrize("col_id", ["", " "])
def test_parse_rejects_empty_column_id(col_id):
    text = f"id\tt1\t{col_id}\ng1\t1\t2\n"
    with pytest.raises(ParseError, match="line 1: header field 3: empty column id"):
        parse_matrix(text)


def test_parse_allows_empty_corner_label():
    m = parse_matrix("\tt1\tt2\ng1\t1\t2\n")
    assert m.gene_ids == ("g1",)
    assert m.condition_ids == ("t1", "t2")


def test_parse_duplicate_gene_id():
    with pytest.raises(ValidationError):
        parse_matrix("id\tt1\ng1\t1\ng1\t2\n")
    with pytest.raises(ValidationError, match="^duplicate gene id: 'g1'$"):
        parse_matrix("id\tg1\tg2\tg1\nt1\t1\t2\t3\n", GENES_AS_COLUMNS)


def test_parse_duplicate_condition_id():
    with pytest.raises(ValidationError):
        parse_matrix("id\tt1\tt1\ng1\t1\t2\n")


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("id\tt1\n")


def test_matrix_values_read_only():
    m = parse_matrix(SMALL_TSV)
    with pytest.raises(ValueError):
        m.values[0, 0] = 99.0


def test_drop_incomplete_identity_on_complete():
    m = parse_matrix(SMALL_TSV)
    assert drop_incomplete_genes(m) is m


def test_drop_incomplete_small():
    m = ExpressionMatrix(
        ("g1", "g2", "g3"), ("t1", "t2"),
        [[1.0, 2.0], [np.nan, 0.5], [3.0, 4.0]],
    )
    out = drop_incomplete_genes(m)
    assert out.gene_ids == ("g1", "g3")
    assert out.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_drop_incomplete_large_planted():
    rng = np.random.default_rng(42)
    values = rng.normal(size=(2884, 17))
    values[100, 3] = np.nan
    values[2000, 16] = np.nan
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(2884)),
        tuple(f"t{j}" for j in range(17)),
        values,
    )
    out = drop_incomplete_genes(m)
    assert out.shape == (2882, 17)
    assert "g100" not in out.gene_ids and "g2000" not in out.gene_ids


def test_drop_incomplete_idempotent():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(30, 5))
    values[rng.random((30, 5)) < 0.2] = np.nan
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(30)), tuple(f"t{j}" for j in range(5)), values
    )
    once = drop_incomplete_genes(m)
    assert drop_incomplete_genes(once) is once


def test_drop_incomplete_nothing_left():
    m = ExpressionMatrix(("g1", "g2"), ("t1",), [[np.nan], [np.nan]])
    with pytest.raises(EmptyMatrixError):
        drop_incomplete_genes(m)


def test_normalize_column_hand_case():
    m = ExpressionMatrix(("g1", "g2", "g3"), ("t1",), [[2.0], [4.0], [6.0]])
    out = min_max_normalize(m)
    assert out.values.ravel().tolist() == [0.0, 0.5, 1.0]


def test_normalize_endpoints_exact():
    rng = np.random.default_rng(7)
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(40)),
        tuple(f"t{j}" for j in range(6)),
        rng.normal(scale=13.0, size=(40, 6)),
    )
    params = NormalizationParams(0.25, 0.75)  # awkward range to catch rounding
    out = min_max_normalize(m, params)
    for j in range(6):
        col = m.values[:, j]
        assert out.values[col.argmin(), j] == 0.25
        assert out.values[col.argmax(), j] == 0.75
        assert out.values[:, j].min() >= 0.25
        assert out.values[:, j].max() <= 0.75


def test_normalize_matches_direct_formula():
    rng = np.random.default_rng(8)
    values = rng.normal(scale=5.0, size=(25, 4))
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(25)), tuple(f"t{j}" for j in range(4)), values
    )
    params = NormalizationParams(-1.0, 2.0)
    out = min_max_normalize(m, params)
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    expected = (values - lo) / (hi - lo) * (params.new_max - params.new_min) + params.new_min
    assert np.abs(out.values - expected).max() <= 1e-12


@st.composite
def _value_matrices(draw, bound=1e300):
    n = draw(st.integers(1, 8))
    c = draw(st.integers(1, 4))
    cells = st.floats(-bound, bound) | st.sampled_from([0.0, -0.0, 1.0, 5e-324])
    values = draw(st.lists(st.lists(cells, min_size=c, max_size=c), min_size=n, max_size=n))
    return ExpressionMatrix(
        tuple(f"g{i}" for i in range(n)), tuple(f"t{j}" for j in range(c)), values
    )


@st.composite
def _normalization_params(draw):
    lo = draw(st.floats(-1e300, 1e300))
    hi = draw(st.floats(-1e300, 1e300).filter(lambda v: v > lo))
    return NormalizationParams(lo, hi)


@settings(deadline=None)
@given(m=_value_matrices(), params=_normalization_params())
def test_normalize_hits_endpoints_exactly(m, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = min_max_normalize(m, params).values
    v = m.values
    assert ((out >= params.new_min) & (out <= params.new_max)).all()
    for j in range(m.n_conditions):
        lo, hi = v[:, j].min(), v[:, j].max()
        if lo == hi:
            assert (out[:, j] == params.new_min).all()
        else:
            assert (out[v[:, j] == lo, j] == params.new_min).all()
            assert (out[v[:, j] == hi, j] == params.new_max).all()


@given(m=_value_matrices(bound=1e308))
def test_discretize_codes_are_regulation_signs(m):
    d = discretize(m)
    assert set(np.unique(d.values).tolist()) <= {-1, 0, 1}
    # the sign of each change is the order of its two values, overflow or not
    for row, codes in zip(m.values.tolist(), d.values.tolist()):
        want = [(b > a) - (b < a) for a, b in zip([0.0, *row], row)]
        assert codes == want


def test_normalize_preserves_rank_order():
    rng = np.random.default_rng(9)
    values = rng.normal(size=(60, 5))
    values[rng.integers(0, 60, 10), 2] = 0.5  # some ties
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(60)), tuple(f"t{j}" for j in range(5)), values
    )
    out = min_max_normalize(m)
    for j in range(5):
        order = np.argsort(values[:, j], kind="stable")
        assert (np.diff(out.values[order, j]) >= 0).all()


def test_normalize_constant_column_warns_and_maps_to_new_min():
    m = ExpressionMatrix(
        ("g1", "g2"), ("t1", "t2"), [[5.0, 1.0], [5.0, 3.0]]
    )
    with pytest.warns(UserWarning, match="t1"):
        out = min_max_normalize(m, NormalizationParams(0.1, 0.9))
    assert out.values[:, 0].tolist() == [0.1, 0.1]
    assert out.values[:, 1].tolist() == [0.1, 0.9]


def test_normalize_rejects_overflowing_column_range():
    m = ExpressionMatrix(
        ("g1", "g2", "g3", "g4"),
        ("t1", "t2"),
        [[1e308, 1.0], [-1e308, 2.0], [0.0, 3.0], [5e307, 4.0]],
    )
    with pytest.raises(ValidationError, match="overflows a float: t1$"):
        min_max_normalize(m)
    # a wide range that still fits is normalized as usual
    fits = ExpressionMatrix(("g1", "g2", "g3"), ("t1",), [[1e308], [0.0], [-5e307]])
    assert min_max_normalize(fits).values[[0, 2], 0].tolist() == [1.0, 0.0]


def test_normalize_rejects_missing():
    m = ExpressionMatrix(("g1", "g2"), ("t1",), [[1.0], [np.nan]])
    with pytest.raises(ValidationError):
        min_max_normalize(m)


def test_normalization_params_validation():
    with pytest.raises(ValidationError):
        NormalizationParams(1.0, 1.0)
    with pytest.raises(ValidationError):
        NormalizationParams(2.0, 0.0)
    with pytest.raises(ValidationError):
        NormalizationParams(0.0, math.inf)
    with pytest.raises(ValidationError, match="finite width"):
        NormalizationParams(-1e308, 1e308)  # each end finite, the width overflows
    assert NormalizationParams(-1e308, 0.0).new_min == -1e308


def test_discretize_worked_row():
    m = ExpressionMatrix(("g1",), ("t1", "t2", "t3", "t4"), [[0.5, 0.3, 0.3, 0.8]])
    assert discretize(m).values.ravel().tolist() == [1, -1, 0, 1]


def test_discretize_first_position_sign():
    m = ExpressionMatrix(("g1",), ("t1", "t2"), [[0.0, -2.0]])
    assert discretize(m).values.ravel().tolist() == [0, -1]


def test_discretize_constant_positive_row():
    m = ExpressionMatrix(("g1",), ("t1", "t2", "t3"), [[2.5, 2.5, 2.5]])
    assert discretize(m).values.ravel().tolist() == [1, 0, 0]


def test_discretize_shape_and_alphabet():
    rng = np.random.default_rng(10)
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(20)),
        tuple(f"t{j}" for j in range(7)),
        rng.normal(size=(20, 7)),
    )
    d = discretize(m)
    assert d.shape == m.shape
    assert set(np.unique(d.values)) <= {-1, 0, 1}
    assert (d.values[:, 0] == np.sign(m.values[:, 0])).all()


def test_discretize_row_shift_leaves_pattern():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(15, 6))
    m1 = ExpressionMatrix(
        tuple(f"g{i}" for i in range(15)), tuple(f"t{j}" for j in range(6)), values
    )
    m2 = ExpressionMatrix(m1.gene_ids, m1.condition_ids, values + 100.0)
    d1, d2 = discretize(m1), discretize(m2)
    # consecutive differences are unaffected; only the first sign may move
    assert (d1.values[:, 1:] == d2.values[:, 1:]).all()


def test_discretize_rejects_missing():
    m = ExpressionMatrix(("g1",), ("t1", "t2"), [[1.0, np.nan]])
    with pytest.raises(ValidationError):
        discretize(m)


def test_discretized_matrix_validates_alphabet():
    with pytest.raises(ValidationError):
        DiscretizedMatrix(("g1",), ("t1",), [[2]])


def test_text_round_trip_floats():
    rng = np.random.default_rng(12)
    values = rng.normal(scale=7.3, size=(8, 4))
    values[2, 1] = np.nan
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(8)), tuple(f"t{j}" for j in range(4)), values
    )
    back = parse_matrix(matrix_to_text(m))
    assert back.gene_ids == m.gene_ids
    assert back.condition_ids == m.condition_ids
    assert np.array_equal(back.values, m.values, equal_nan=True)


def test_text_round_trip_discretized_bit_exact():
    rng = np.random.default_rng(13)
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(9)),
        tuple(f"t{j}" for j in range(5)),
        rng.normal(size=(9, 5)),
    )
    d = discretize(m)
    text = matrix_to_text(d)
    back = oracle_parse_discretized(text)
    assert (back.values == d.values).all()
    assert matrix_to_text(back) == text


def test_file_round_trip_with_extension_delimiters(tmp_path):
    m = parse_matrix(SMALL_TSV)
    csv_path = tmp_path / "m.csv"
    write_matrix(m, csv_path)
    assert "," in csv_path.read_text()
    back = read_matrix(csv_path)
    assert np.array_equal(back.values, m.values)
    tsv_path = tmp_path / "m.tsv"
    write_matrix(m, tsv_path)
    assert "\t" in tsv_path.read_text()
    assert np.array_equal(read_matrix(tsv_path).values, m.values)


def test_subset_genes_keeps_order():
    m = parse_matrix(SMALL_TSV)
    out = subset_genes(m, ["g3", "g1"])
    assert out.gene_ids == ("g1", "g3")
    assert out.values.tolist() == [[1.5, 2.0], [4.0, 1.0]]


def test_subset_genes_unknown_id():
    m = parse_matrix(SMALL_TSV)
    with pytest.raises(KeyError):
        subset_genes(m, ["nope"])


def _parse_outcome(parse, text, orientation=GENES_AS_ROWS, delimiter="\t"):
    """What parsing text gives: the error's type and message, or the ids and
    the exact bits of the values."""
    try:
        m = parse(text, orientation, delimiter)
    except (ParseError, ValidationError, csv.Error) as err:
        return type(err).__name__, str(err)
    return m.gene_ids, m.condition_ids, m.values.tobytes(), m.values.shape


@pytest.mark.parametrize("cell", [
    "na", "NaN", "", " nan ", "-nan", "\x1c1.5", " 1.5\x0b", "\u20031e-3", "1_000",
    "inf", "-Infinity", "1e999", "bogus", "1.5.2", "0x10",
])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_cell_outcomes_match_oracle(cell, orientation):
    text = f"id\tt1\tt2\ng1\t1\t2\ng2\t3\t{cell}\ng3\t5\t6\n"
    _assert_outcome_matches_oracle(text, orientation)


def _assert_outcome_matches_oracle(text, orientation=GENES_AS_ROWS):
    """Parsing gives the oracle's outcome, except that where the oracle lets a
    csv.Error escape the library raises a ParseError with its message and a
    line."""
    want = _parse_outcome(oracle_parse_matrix, text, orientation)
    got = _parse_outcome(parse_matrix, text, orientation)
    if want[0] == csv.Error.__name__:
        assert got[0] == ParseError.__name__
        assert re.fullmatch(r"line \d+: " + re.escape(want[1]), got[1])
    else:
        assert got == want


@pytest.mark.parametrize("text", [
    "",
    "\n\n",
    "id\n",
    "id\tt1\n",
    "id\tt1\t \ng1\t1\t2\n",
    "id\tt1\tt2\ng1\t1\ng2\tbogus\t1\n",
    "id\tt1\ng1\t1\n \t2\n",
    "id\tt1\tt2\ng1\tinf\t1\ng2\tbogus\t1\n",  # the bad cell is reported first
    "id\tt1\tt2\ng1\t1\t-inf\ng2\tinf\t1\n",
    "id\tt1\n\ng1\t1\n\n\ng2\tx\n",  # blank lines still count
    "id\tt1\ng1\t1\ng1\t2\n",
    "id\tt1\ng1\tbogus\ng2\r1\n",  # a csv error anywhere comes first
    "id\tt1\ng1\t1\r\ng2\t2\r\n",
    "id\tt1\ng1\t1\ng2\t2",
])
def test_error_outcomes_match_oracle(text):
    _assert_outcome_matches_oracle(text)


@pytest.mark.parametrize("text, line, message", [
    ("id\tt1\ng1\t" + "1" * 200000 + "\ng2\t2\n", 2, "field larger than field limit"),
    ("id\tt1\ng\r1\t1\ng2\t2\n", 2, "new-line character seen in unquoted field"),
    ("id\tt1\ng1\tbogus\ng2\t1\ng3\r1\n", 4, "new-line character seen in unquoted field"),
])
def test_csv_error_is_parse_error_with_line(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {message}") as err:
        parse_matrix(text)
    assert err.value.line == line


def test_carriage_return_in_id_is_rejected():
    for cls, values in ((ExpressionMatrix, [[1.0], [2.0]]), (DiscretizedMatrix, [[1], [0]])):
        with pytest.raises(ValidationError, match="gene id holds a carriage return"):
            cls(("g\r1", "g2"), ("t1",), values)
        with pytest.raises(ValidationError, match="condition id holds a carriage return"):
            cls(("g1", "g2"), ("t\r1",), values)
    with pytest.raises(ValidationError, match=r"^gene id holds a carriage return: 'g\\r1'$"):
        parse_matrix('id\tt1\n"g\r1"\t1\ng2\t2\n')
    with pytest.raises(ValidationError, match="^condition id holds a carriage return"):
        parse_matrix('id\t"t\r1"\ng1\t1\n')
    assert ExpressionMatrix((1, 2), ("t1",), [[1.0], [2.0]]).gene_ids == (1, 2)


_ID = st.text(alphabet='ab,\t"\n é.-e1N', min_size=1, max_size=4).filter(lambda s: s == s.strip())
# tab and comma, a space, and characters that numbers are written with, so
# that number cells get quoted too
_DELIMITERS = st.sampled_from(["\t", ",", " ", ".", "-", "e", "1", "N", "a"])
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308]),
    st.just(math.nan),
)


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 6))
    c = draw(st.integers(1, 5))
    gene_ids = draw(st.lists(_ID, min_size=n, max_size=n, unique=True))
    condition_ids = draw(st.lists(_ID, min_size=c, max_size=c, unique=True))
    values = draw(st.lists(st.lists(_CELL, min_size=c, max_size=c), min_size=n, max_size=n))
    return ExpressionMatrix(gene_ids, condition_ids, np.array(values, dtype=float))


@settings(max_examples=300, deadline=None)
@given(m=_matrices(), orientation=st.sampled_from(ORIENTATIONS), delimiter=_DELIMITERS)
def test_text_round_trip_matches_oracles(m, orientation, delimiter):
    text = matrix_to_text(m, delimiter)
    assert text == oracle_matrix_to_text(m, delimiter)
    got = parse_matrix(text, orientation, delimiter)
    want = oracle_parse_matrix(text, orientation, delimiter)
    assert (got.gene_ids, got.condition_ids) == (want.gene_ids, want.condition_ids)
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    if orientation == GENES_AS_COLUMNS:
        got = ExpressionMatrix(got.condition_ids, got.gene_ids, got.values.T)
    assert (got.gene_ids, got.condition_ids) == (m.gene_ids, m.condition_ids)
    missing = np.isnan(m.values)
    assert np.array_equal(np.isnan(got.values), missing)
    assert np.array_equal(got.values[~missing].view(np.int64), m.values[~missing].view(np.int64))


@settings(max_examples=100, deadline=None)
@given(m=_matrices(), delimiter=_DELIMITERS)
def test_discretized_text_matches_oracle(m, delimiter):
    codes = np.sign(np.nan_to_num(m.values)).astype(np.int8)
    d = DiscretizedMatrix(m.gene_ids, m.condition_ids, codes)
    text = matrix_to_text(d, delimiter)
    assert text == oracle_matrix_to_text(d, delimiter)
    assert (oracle_parse_discretized(text, delimiter).values == codes).all()


_TOKEN = st.one_of(
    st.sampled_from(["NA", "na", "nA", "Na", "", " NA ", " ", "nan", "-nan", "NaN", "bogus"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_TOKEN, min_size=3, max_size=3), min_size=1, max_size=6),
       orientation=st.sampled_from(ORIENTATIONS))
def test_missing_and_bad_cell_outcomes_match_oracle(rows, orientation):
    text = "id\tt1\tt2\tt3\n" + "".join(
        f"g{i}\t" + "\t".join(row) + "\n" for i, row in enumerate(rows)
    )
    _assert_outcome_matches_oracle(text, orientation)


def _wide_synthetic_matrix():
    m, _ = generate_synthetic(3000, 60, 7, noise=0.3, missing_fraction=0.005, seed=1)
    return m


def test_parse_and_write_match_oracles_on_wide_synthetic_input():
    m = _wide_synthetic_matrix()
    text = matrix_to_text(m)
    assert text == oracle_matrix_to_text(m)
    got, want = parse_matrix(text), oracle_parse_matrix(text)
    assert got.gene_ids == want.gene_ids
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    d = discretize(min_max_normalize(drop_incomplete_genes(got)))
    assert matrix_to_text(d, ",") == oracle_matrix_to_text(d, ",")


def test_parse_peak_memory_is_a_few_value_arrays():
    text = matrix_to_text(_wide_synthetic_matrix())
    # per-cell Python strings and floats took 34.9 MiB here for 1.4 MiB of values
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        m = parse_matrix(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 4 * m.values.nbytes
