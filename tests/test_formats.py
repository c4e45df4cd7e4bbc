"""The one JSON encoder, CSV writer and CSV reader."""

import numpy as np
import pytest

from berezin_lab.formats import read_columns, to_json, write_csv, write_text


def test_to_json_pinned_bytes():
    doc = {
        128: 1.5,
        1024: np.float64(0.25),
        "z": 1 - 2j,
        "n": np.int64(7),
        "t": (1, np.complex128(0.5j)),
        "a": np.array([0.5, 1.0]),
    }
    # keys become strings before sorting, so "1024" precedes "128"
    assert to_json(doc) == (
        '{\n'
        '  "1024": 0.25,\n'
        '  "128": 1.5,\n'
        '  "a": [\n'
        '    0.5,\n'
        '    1.0\n'
        '  ],\n'
        '  "n": 7,\n'
        '  "t": [\n'
        '    1,\n'
        '    {\n'
        '      "im": 0.5,\n'
        '      "re": 0.0\n'
        '    }\n'
        '  ],\n'
        '  "z": {\n'
        '    "im": -2.0,\n'
        '    "re": 1.0\n'
        '  }\n'
        '}'
    )


@pytest.mark.parametrize("bad", [float("nan"), np.float64("inf"), complex(0.0, float("-inf"))])
def test_to_json_refuses_non_finite(bad):
    with pytest.raises(ValueError):
        to_json({"x": [bad]})


def test_write_text_file_and_stdout(tmp_path, capsys):
    write_text(tmp_path / "t.txt", "abc")
    assert (tmp_path / "t.txt").read_text() == "abc"
    write_text(None, "abc")
    assert capsys.readouterr().out == "abc\n"


def test_write_csv_bytes_and_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    vals = [0.1, 1 / 3, 2.0 ** -1074]
    write_csv(path, ("k", "v"), [(np.int64(k), np.float64(v)) for k, v in enumerate(vals)])
    assert path.read_bytes() == b"k,v\r\n0,0.1\r\n1,0.3333333333333333\r\n2,5e-324\r\n"
    assert read_columns(path, ("v", "k")) == [vals, [0.0, 1.0, 2.0]]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_write_csv_refuses_non_finite_before_opening(tmp_path, bad):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="is not a finite number"):
        write_csv(path, ("k", "v"), [(0, 1.0), (1, bad)])
    assert not path.exists()


def test_read_columns_by_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" x , p \n9,0.5\n\n9,1e-3,extra\n")
    assert read_columns(path, ("p",)) == [[0.5, 1e-3]]


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "empty"),
        ("\n", "empty"),
        ("x,q\n1,2\n", "'p' column"),
        ("x,p\n1\n", "line 2: .* short"),
        ("x,p\n1,0.5\n2\n", "line 3: .* short"),
        ("x,p\n1,abc\n", "line 2: 'abc' is not a finite number"),
        ("x,p\n1,nan\n", "not a finite number"),
        ("x,p\n1,-inf\n", "not a finite number"),
    ],
)
def test_read_columns_rejects_malformed_tables(tmp_path, text, match):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_columns(path, ("p",))
