import warnings

import numpy as np
import pytest

from mlerisk.data_moments import (
    DataError,
    LoadOptions,
    load_csv,
    sample_aggregates,
    standardize,
)
from sample_oracles import aggregates_brute_force


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n5,9\n")
    ds = load_csv(path)
    assert ds.column_names == ("a", "b")
    assert ds.n == 3 and ds.p == 2
    assert np.array_equal(ds.rows, [[1, 2], [3, 4], [5, 9]])


def test_load_csv_drop_rows_with_missing(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n?,4\n5,6\n7,8\n")
    ds = load_csv(path)
    assert ds.n == 3
    assert ds.dropped_row_count == 1


def test_load_csv_drop_columns_with_missing(tmp_path):
    path = _write(tmp_path, "a,b,c\n1,2,3\n4,?,6\n7,8,9\n10,11,12\n")
    ds = load_csv(path, LoadOptions(missing_strategy="drop_columns"))
    assert ds.column_names == ("a", "c")
    assert "b" in ds.dropped_columns
    assert ds.n == 4


def test_load_csv_explicit_column_drop_and_delimiter(tmp_path):
    path = _write(tmp_path, "a;b;c\n1;2;3\n4;5;6\n7;8;10\n9;1;2\n")
    ds = load_csv(path, LoadOptions(delimiter=";", drop_columns=("b",)))
    assert ds.column_names == ("a", "c")


def test_load_csv_unknown_drop_column_is_refused(tmp_path):
    path = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,10\n9,1,2\n")
    with pytest.raises(DataError, match=r"no column named 'nosuch', 'B' to drop"):
        load_csv(path, LoadOptions(drop_columns=("b", "nosuch", "B")))


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_load_csv_delimiter_must_be_one_character(tmp_path, delimiter):
    path = _write(tmp_path, "a,b\n1,2\n3,5\n4,4\n")
    with pytest.raises(DataError, match="delimiter must be a single character"):
        load_csv(path, LoadOptions(delimiter=delimiter))


def test_load_csv_ragged_line_reports_number(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path)


def test_load_csv_line_numbers_count_blank_lines(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n\n3,4\n5\n")
    with pytest.raises(DataError, match="line 5: expected 2 fields, found 1"):
        load_csv(path)
    path = _write(tmp_path, "\n1,2\n\n\n3,x\n4,5\n6,7\n", name="nohead.csv")
    with pytest.raises(DataError, match=r"line 5: non-numeric value 'x' in column 'x2'"):
        load_csv(path, LoadOptions(header=False))


def test_load_csv_line_numbers_after_multiline_field(tmp_path):
    # the quoted field of the first record spans lines 2-3
    path = _write(tmp_path, 'a,b\n1,"2\n"\n3,4\n5,z\n6,7\n')
    with pytest.raises(DataError, match=r"line 5: non-numeric value 'z' in column 'b'"):
        load_csv(path)
    path = _write(tmp_path, 'a,b\n1,"2\n"\n3,4\n5\n', name="ragged.csv")
    with pytest.raises(DataError, match="line 5: expected 2 fields"):
        load_csv(path)
    # a bad record is numbered by the line it starts on
    path = _write(tmp_path, 'a,b\n1,2\n3,"x\ny"\n5,6\n7,8\n', name="bad.csv")
    with pytest.raises(DataError, match=r"line 3: non-numeric value 'x\\ny' in column 'b'"):
        load_csv(path)


def test_load_csv_non_numeric(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,zebra\n4,5\n")
    with pytest.raises(DataError, match="zebra"):
        load_csv(path)


def test_load_csv_needs_more_rows_than_columns(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(DataError, match="more rows than columns"):
        load_csv(path)


def test_correlation_flagging(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal(200)
    b = a + 1e-4 * rng.standard_normal(200)
    c = rng.standard_normal(200)
    lines = ["a,b,c"] + [f"{x},{y},{z}" for x, y, z in zip(a, b, c)]
    ds = load_csv(_write(tmp_path, "\n".join(lines) + "\n"))
    assert any(set(pair[:2]) == {"a", "b"} for pair in ds.flagged_pairs)


def test_standardize_invariants():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((400, 4))
    mix = base @ rng.standard_normal((4, 4)) + np.array([5.0, -3.0, 0.0, 2.0])
    from mlerisk.data_moments import Dataset

    ds = Dataset(column_names=("a", "b", "c", "d"), rows=mix)
    std = standardize(ds)
    assert np.max(np.abs(std.scores.mean(axis=0))) < 1e-10
    second = std.scores.T @ std.scores / ds.n
    assert np.max(np.abs(second - np.eye(4))) < 1e-8
    # the stored transform reproduces the scores
    assert np.allclose((mix - std.center) @ std.transform, std.scores)


def test_standardize_decorrelates_strongly_correlated_pair():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(300)
    b = 0.9 * a + np.sqrt(1 - 0.9**2) * rng.standard_normal(300)
    from mlerisk.data_moments import Dataset

    std = standardize(Dataset(("a", "b"), np.column_stack([a, b])))
    corr = std.scores.T @ std.scores / 300
    assert abs(corr[0, 1]) < 1e-10


def test_standardize_singular_covariance():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(100)
    from mlerisk.data_moments import Dataset

    with pytest.raises(DataError, match="singular covariance"):
        standardize(Dataset(("a", "twice_a"), np.column_stack([a, 2 * a])))


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_aggregates_match_brute_force(p):
    rng = np.random.default_rng(10 + p)
    x = rng.standard_normal((60, p)) ** 3  # give the moments some asymmetry
    fast = sample_aggregates(x, chunk=17)
    slow = aggregates_brute_force(x)
    for key in ("M2a", "M2b", "M1"):
        assert fast[key] == pytest.approx(slow[key], abs=1e-12 * max(1, abs(slow[key])))


def test_aggregates_nonnegative_and_row_permutation_invariant():
    rng = np.random.default_rng(99)
    x = rng.standard_normal((80, 4)) * np.array([1.0, 2.0, 0.5, 1.5])
    agg = sample_aggregates(x)
    assert agg["M2a"] >= 0 and agg["M2b"] >= 0 and agg["M1"] >= 0
    perm = rng.permutation(80)
    agg2 = sample_aggregates(x[perm])
    for key in agg:
        assert agg[key] == pytest.approx(agg2[key], rel=1e-12)


def test_whitened_pipeline_end_to_end(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(500, 3)) @ np.diag([3.0, 1.0, 0.2]) + 7.0
    lines = ["a,b,c"] + [",".join(map(str, row)) for row in x]
    ds = load_csv(_write(tmp_path, "\n".join(lines) + "\n"))
    std = standardize(ds)
    agg = sample_aggregates(std)
    slow = aggregates_brute_force(std.scores)
    for key in agg:
        assert agg[key] == pytest.approx(slow[key], rel=1e-10)


# --- the two M2a routes -------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 11, 99])
def test_m2a_gram_and_tensor_routes_agree(p):
    from mlerisk.data_moments import _m2a_gram, _m2a_tensor

    rng = np.random.default_rng(200 + p)
    x = rng.standard_normal((p + 60, p)) ** 3
    gram, tensor = _m2a_gram(x, chunk=37), _m2a_tensor(x, chunk=37)
    assert tensor == pytest.approx(gram, rel=1e-12)


@pytest.mark.parametrize(
    "n, p, route",
    [(40, 1, "tensor"), (40, 2, "tensor"), (40, 3, "tensor"), (40, 4, "tensor"),
     (40, 5, "tensor"), (20, 5, "gram"), (25, 5, "gram"), (26, 5, "tensor")],
)
def test_aggregates_route_by_shape_and_match_brute_force(monkeypatch, n, p, route):
    import mlerisk.data_moments as dm

    other = {"tensor": "_m2a_gram", "gram": "_m2a_tensor"}[route]
    monkeypatch.setattr(dm, other, lambda *a: pytest.fail(f"{other} used for n={n}, p={p}"))
    rng = np.random.default_rng(300 + 10 * n + p)
    x = rng.standard_normal((n, p)) ** 3
    fast = sample_aggregates(x, chunk=7)  # 7 divides none of the n
    slow = aggregates_brute_force(x)
    for key in ("M2a", "M2b", "M1"):
        assert fast[key] == pytest.approx(slow[key], rel=1e-12, abs=1e-12)


# --- load_csv: tokens, strategies, messages -----------------------------------


def test_load_csv_padded_missing_tokens_and_numbers(tmp_path):
    path = _write(tmp_path, "a,b\n 1 ,2\n ? ,4\n5,  NA\n7 , 8\n9,10\n11,\t12\n")
    ds = load_csv(path)
    assert ds.dropped_row_count == 2
    assert ds.rows.tolist() == [[1, 2], [7, 8], [9, 10], [11, 12]]


def test_load_csv_numeric_user_missing_token(tmp_path):
    # only the exact (stripped) token is missing: -999.0 is a number
    path = _write(tmp_path, "a,b\n1,2\n-999,3\n4, -999 \n5,-999.0\n6,7\n?,8\n")
    with pytest.raises(DataError, match=r"line 7: non-numeric value '\?' in column 'a'"):
        load_csv(path, LoadOptions(missing_tokens=("-999",)))
    path = _write(tmp_path, "a,b\n1,2\n-999,3\n4, -999 \n5,-999.0\n6,7\n", name="ok.csv")
    ds = load_csv(path, LoadOptions(missing_tokens=("-999",)))
    assert ds.dropped_row_count == 2
    assert ds.rows.tolist() == [[1, 2], [5, -999], [6, 7]]


def test_load_csv_quoted_fields(tmp_path):
    path = _write(tmp_path, '"x, first","y"\n"1.5","2"\n"3",4\n" 5 ","6e1"\n7,"?"\n')
    ds = load_csv(path)
    assert ds.column_names == ("x, first", "y")
    assert ds.rows.tolist() == [[1.5, 2], [3, 4], [5, 60]]
    assert ds.dropped_row_count == 1
    # a quote after a space is literal text, as csv.reader has it
    path = _write(tmp_path, 'a,b\n1, "2"\n3,4\n5,6\n', name="spaced.csv")
    with pytest.raises(DataError, match="line 2: non-numeric value \'\"2\"\' in column \'b\'"):
        load_csv(path)


def test_load_csv_both_strategies_on_one_file(tmp_path):
    text = "a,b,c,d,e\n1,2,3,?,5\n6,7,8,9,10\n11,,13,14,15\n16,17,x,19,20\n21,22,23,24,25\n"
    text += "26,27,28,29,30\n31,32,33,34,35\n"
    path = _write(tmp_path, text)
    # drop_rows: the bad cell of column c is in a kept row only if c is kept
    ds = load_csv(path, LoadOptions(drop_columns=("c",)))
    assert ds.column_names == ("a", "b", "d", "e")
    assert ds.dropped_columns == ("c",) and ds.dropped_row_count == 2
    assert ds.rows[:, 0].tolist() == [6, 16, 21, 26, 31]
    # drop_columns: explicit drops first, then columns with a missing cell in order
    ds = load_csv(path, LoadOptions(drop_columns=("c",), missing_strategy="drop_columns"))
    assert ds.column_names == ("a", "e")
    assert ds.dropped_columns == ("c", "b", "d") and ds.dropped_row_count == 0
    assert ds.n == 7
    with pytest.raises(DataError, match=r"line 5: non-numeric value 'x' in column 'c'"):
        load_csv(path, LoadOptions(missing_strategy="drop_columns"))


def test_load_csv_missing_row_hides_non_numeric_cell(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n?,zebra\n3,4\n5,6\n")
    ds = load_csv(path)
    assert ds.dropped_row_count == 1 and ds.rows.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_load_csv_first_bad_cell_row_major(tmp_path):
    # column b goes bad first, but column a's bad cell is in an earlier row
    path = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,9\nfoo,bar,12\n13,baz,15\n")
    with pytest.raises(DataError, match=r"line 5: non-numeric value 'foo' in column 'a'"):
        load_csv(path)
    path = _write(tmp_path, "1,2,3\n4,5,6\n7,  oops ,9\n10,11,nope\n", name="nohead.csv")
    with pytest.raises(DataError, match=r"line 3: non-numeric value 'oops' in column 'x2'"):
        load_csv(path, LoadOptions(header=False))


def test_load_csv_unknown_strategy(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(DataError, match="unknown missing_strategy 'ignore'"):
        load_csv(path, LoadOptions(missing_strategy="ignore"))


def test_load_csv_no_rows_or_columns_left(tmp_path):
    path = _write(tmp_path, "a,b\n?,2\n3,NA\n")
    with pytest.raises(DataError, match="no rows left"):
        load_csv(path)
    with pytest.raises(DataError, match="no columns left"):
        load_csv(path, LoadOptions(missing_strategy="drop_columns"))
    with pytest.raises(DataError, match="no rows left"):
        load_csv(_write(tmp_path, "a,b\n", name="head.csv"))


def _flagged_pairs_double_loop(rows, names, threshold):
    x = rows - rows.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = np.nan
    c = (x.T @ x) / rows.shape[0] / np.outer(sd, sd)
    flagged = []
    for i in range(rows.shape[1]):
        for j in range(i + 1, rows.shape[1]):
            if np.isfinite(c[i, j]) and abs(c[i, j]) > threshold:
                flagged.append((names[i], names[j], float(c[i, j])))
    return tuple(flagged)


@pytest.mark.parametrize("threshold", [0.99, 0.5, 0.0])
def test_flagged_pairs_match_double_loop(tmp_path, threshold):
    rng = np.random.default_rng(17)
    base = rng.standard_normal((300, 4))
    cols = [base[:, 0], base[:, 0] + 1e-3 * base[:, 1], base[:, 2], -base[:, 2] + 1e-3 * base[:, 3],
            np.full(300, 4.0), 0.6 * base[:, 0] + 0.8 * base[:, 3], base[:, 1]]
    names = [f"c{j}" for j in range(len(cols))]
    lines = [",".join(names)] + [",".join(map(repr, row.tolist())) for row in np.column_stack(cols)]
    ds = load_csv(_write(tmp_path, "\n".join(lines) + "\n"), LoadOptions(correlation_threshold=threshold))
    want = _flagged_pairs_double_loop(ds.rows, ds.column_names, threshold)
    assert ds.flagged_pairs == want
    assert len(want) >= 2
    assert all(type(a) is str and type(c) is float for a, _, c in ds.flagged_pairs)


# --- load_csv: numpy's C reader against the csv.reader path --------------------


def _outcome(path, options):
    """Everything load_csv returns, rows as bits, or the message of its DataError."""
    try:
        with warnings.catch_warnings():  # an inf cell makes the correlation flags warn
            warnings.simplefilter("ignore", RuntimeWarning)
            ds = load_csv(path, options)
    except DataError as exc:
        return str(exc)
    return (ds.column_names, ds.rows.shape, ds.rows.view(np.int64).tolist(),
            ds.dropped_columns, ds.dropped_row_count, ds.flagged_pairs)


def _shaped(rng, n, p, delimiter=",", header=None, missing_cols=()):
    """n x p correlated, skewed columns as %.6g text, '?' in missing_cols."""
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.2 * rng.uniform(-1, 1, (p, p))) + rng.gamma(2.0, size=p)
    text = np.char.mod("%.6g", x ** 3)
    for j in missing_cols:
        text[rng.random(n) < 0.05, j] = "?"
    head = header or [f"c{j}" for j in range(p)]
    return "\n".join([delimiter.join(head)] + [delimiter.join(row) for row in text]) + "\n"


_rng = np.random.default_rng(42)
_exact = [repr(v) for v in (_rng.standard_normal(300) * 10.0 ** _rng.integers(-100, 100, 300)).tolist()]
# (id, file text, LoadOptions fields, whether numpy's C reader takes it)
_DIFFERENTIAL = [
    ("uci-quoted-header", '"a";"b";"c"\n1;2;3\n4;5;6\n7;8;10\n9;1;2\n', dict(delimiter=";"), True),
    ("quoted-body-cell", 'a,b\n1,"2"\n3,4\n5,7\n', {}, False),
    # csv.reader reads the first two lines as one record, a line split as two
    ("quoted-dropped-cell-over-two-lines", 'a,b,c\n1,"p,3\n7,q",3\n4,x,6\n5,y,2\n8,z,1\n',
     dict(drop_columns=("b",)), False),
    ("crlf", "a,b\r\n1,2\r\n3,4\r\n\r\n5,7\r\n", {}, True),
    ("bare-cr", "a,b\r1,2\r3,4\r5,7\r", {}, False),
    ("crlf-and-bare-cr", "a,b\r\n1,2\r\n3,4\r5,7\r\n", {}, False),
    ("bare-cr-in-header", "a,b\rc,d\n1,2\n3,4\n5,7\n8,1\n", {}, False),
    ("hash-in-cell", "a,b\n1,2#3\n3,4\n5,7\n", {}, False),
    ("hash-in-dropped-cell", "a,b,c\n1,2#3,4\n3,4,5\n5,7,6\n9,9,1\n", dict(drop_columns=("b",)), True),
    ("whitespace-only-line", "a,b\n1,2\n   \n3,4\n5,7\n", {}, False),
    ("whitespace-only-cell", "a\n1\n   \n2\n3\n", {}, False),
    ("blank-lines-before-bad-row", "a,b\n1,2\n\n\n3,x\n4,5\n6,7\n", {}, False),
    ("underscore", "a,b\n1_000,2\n3,4\n5,7\n", {}, False),
    ("unicode-spaces", "a,b\n\xa01.5 ,2\n3,　4\n5,\t7 \n8,1\n", {}, True),
    ("unicode-digits", "a,b\n١٢,2\n3,4\n5,7\n", {}, False),
    ("inf", "a,b\n1,inf\n3,-Infinity\n5,1e500\n8,1\n", {}, True),
    ("minus-nan", "a,b\n1,-nan\n3,4\n5,7\n8,1\n", {}, False),
    ("NaN-is-a-number", "a,b\n1,NaN\n3,4\n5,7\n8,1\n", {}, False),
    ("NAN-holds-a-token", "a,b\n1,NAN\n3,4\n5,7\n8,1\n", {}, False),
    ("number-spellings", "a,b\n+.5,5.\n-0,1e500\n 7 ,1E-5\n-.25e+2,0x1\n", dict(drop_columns=()), False),
    ("number-spellings-clean", "a,b\n+.5,5.\n-0,1e300\n 7 ,1E-5\n-.25e+2,3\n", {}, True),
    ("empty-kept-cell", "a,b\n1,\n3,4\n5,7\n8,9\n", {}, False),
    ("empty-cell-dropped-column", "a,b,c\n1,,2\n3,4,5\n5,7,1\n8,9,3\n", dict(drop_columns=("b",)), True),
    ("empty-not-missing", "a,b\n1,\n3,4\n5,7\n8,9\n", dict(missing_tokens=("?",)), False),
    ("user-token", "a,b\n1,2\n-999,3\n4, -999 \n5,-999.0\n6,7\n8,1\n", dict(missing_tokens=("-999",)), True),
    ("user-token-hides-question-mark", "a,b\n1,2\n-999,3\n?,1\n6,7\n8,1\n", dict(missing_tokens=("-999",)), False),
    ("tab", "a\tb\n1\t2\n 3 \t 4\n5\t7\n", dict(delimiter="\t"), True),
    ("space", "a b\n1 2\n3 4\n5 7\n", dict(delimiter=" "), True),
    ("space-doubled", "a b\n1 2\n3  4\n5 7\n", dict(delimiter=" "), False),
    ("space-delimited-empty-field", "a b c\n1  2\n3 4 5\n6 7 8\n9 1 2\n", dict(delimiter=" ", drop_columns=("c",)), False),
    ("newline-delimiter", "a\n1\n2\n3\n", dict(delimiter="\n"), False),
    ("header-only", "a,b\n", {}, False),
    ("header-only-no-newline", "1,2", {}, False),
    ("only-blank-lines", "\n\n\n", {}, False),
    ("no-header", "1,2\n3,4\n5,7\n", dict(header=False), True),
    ("no-header-blank-first", "\n1,2\n\n3,4\n5,7\n", dict(header=False), True),
    ("ragged-row", "a,b\n1,2\n3\n4,5\n", {}, False),
    ("ragged-long-row", "a,b\n1,2\n3,4,5\n6,7\n8,9\n", {}, False),
    ("ragged-and-unknown-drop", "a,b\n1,2\n3\n4,5\n", dict(drop_columns=("z",)), False),
    ("unknown-drop", "a,b\n1,2\n3,4\n4,5\n", dict(drop_columns=("z", "a")), True),
    ("duplicate-names-dropped", "a,a,b\n1,2,3\n4,5,7\n7,8,1\n2,2,9\n", dict(drop_columns=("a",)), True),
    ("nul", "a,b\n1,2\x00\n3,4\n5,6\n", {}, False),
    ("nul-in-dropped-column", "a,b,c\n1,x\x00,2\n3,y,4\n5,z,7\n8,w,1\n", dict(drop_columns=("b",)), False),
    ("field-over-csv-limit", "a,b\n1," + "1" * 131073 + "\n3,4\n5,6\n", {}, False),
    ("multi-line-quoted-header", '"x\ny",b\n1,2\n3,4\n5,7\n', {}, True),
    ("bom", "﻿a,b\n1,2\n3,4\n5,7\n", {}, True),
    ("blank-lines-before-header", "\n\na,b\n1,2\n3,4\n5,7\n", {}, True),
    ("too-few-rows", "a,b\n1,2\n3,4\n", {}, True),
    ("no-rows-left", "a,b\n?,2\n3,NA\n", {}, True),
    ("no-columns-left", "a,b\n?,2\n3,NA\n", dict(missing_strategy="drop_columns"), True),
    ("non-numeric", "a,b\n1,2\n3,zebra\n4,5\n", {}, False),
    ("both-strategies", "a,b,c,d,e\n1,2,3,?,5\n6,7,8,9,10\n11,,13,14,15\n16,17,x,19,20\n21,22,23,24,25\n"
     "26,27,28,29,30\n31,32,33,34,35\n", dict(drop_columns=("c",)), False),
    ("both-strategies-columns", "a,b,c,d,e\n1,2,3,?,5\n6,7,8,9,10\n11,NA,13,14,15\n16,17,x,19,20\n"
     "21,22,23,24,25\n26,27,28,29,30\n31,32,33,34,35\n",
     dict(drop_columns=("c",), missing_strategy="drop_columns"), True),
    ("exact-reprs", "a,b,c\n" + "\n".join(",".join(_exact[i:i + 3]) for i in range(0, 300, 3)) + "\n", {}, True),
    ("crime-shaped", _shaped(_rng, 400, 104, missing_cols=(7, 23, 51, 80, 101)),
     dict(missing_strategy="drop_columns"), True),
    ("crime-shaped-rows", _shaped(_rng, 400, 104, missing_cols=(7, 23)), dict(drop_columns=("c0", "c7")), True),
    ("wine-shaped", _shaped(_rng, 600, 12, ";", [f'"fixed_{j}"' for j in range(11)] + ['"quality"']),
     dict(delimiter=";", drop_columns=("quality",)), True),
    ("tall-shaped", _shaped(_rng, 1500, 11), {}, True),
]


@pytest.mark.parametrize("text, fields, plain", [c[1:] for c in _DIFFERENTIAL], ids=[c[0] for c in _DIFFERENTIAL])
def test_load_csv_c_reader_matches_csv_reader(tmp_path, monkeypatch, text, fields, plain):
    import mlerisk.data_moments as dm

    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    options = LoadOptions(**fields)
    try:
        taken = dm._load_plain(path, options) is not None
    except DataError:  # raised by the cleaning both paths share
        taken = True
    assert taken == plain
    fast = _outcome(path, options)
    monkeypatch.setattr(dm, "_load_plain", lambda *_: None)
    assert fast == _outcome(path, options)


@pytest.mark.parametrize(
    "text, fields, p, dropped",
    [
        (_shaped(np.random.default_rng(1), 500, 11), {}, 11, ()),
        (_shaped(np.random.default_rng(2), 300, 104, missing_cols=(7, 80)),
         dict(missing_strategy="drop_columns"), 102, ("c7", "c80")),
        (_shaped(np.random.default_rng(3), 300, 20, missing_cols=(4,)), dict(drop_columns=("c3",)), 19, ("c3",)),
        (_shaped(np.random.default_rng(4), 600, 12, ";", [f'"fixed_{j}"' for j in range(11)] + ['"quality"']),
         dict(delimiter=";", drop_columns=("quality",)), 11, ("quality",)),
    ],
    ids=["clean", "missing-drop-columns", "missing-drop-rows", "semicolon-drop"],
)
def test_load_csv_takes_the_c_reader_on_plain_files(tmp_path, monkeypatch, text, fields, p, dropped):
    import mlerisk.data_moments as dm

    monkeypatch.setattr(dm, "_load_records", lambda *_: pytest.fail("fell back to csv.reader"))
    ds = load_csv(_write(tmp_path, text), LoadOptions(**fields))
    # '?' sits in one column only, so each '?' costs a row under drop_rows
    dropped_rows = text.count("?") if "missing_strategy" not in fields else 0
    assert ds.rows.shape == (text.count("\n") - 1 - dropped_rows, p)
    assert ds.dropped_row_count == dropped_rows and ds.dropped_columns == dropped
