"""File formats: the one JSON encoder, CSV writer and CSV reader.

JSON has sorted keys and indent 2 and refuses NaN and infinity; complex
numbers become {"re", "im"}, numpy values Python values, tuples lists and
keys strings (so "1024" sorts before "128").  CSV floats are written with
``repr``, so they read back exactly, and a non-finite value raises before
the file is opened.  Input columns are found by header name; an empty
file, a missing column, a short row or a cell that is not a finite number
raises ``ValueError``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys

import numpy as np


def to_json(doc) -> str:
    return json.dumps(_plain(doc), sort_keys=True, indent=2, allow_nan=False)


def _plain(v):
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (np.ndarray, np.generic)):
        return _plain(v.tolist())
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, or to standard output when there is no path."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))


def write_csv(path, header, rows) -> None:
    where = f"CSV output {path}"
    cells = [[int(x) if isinstance(x, numbers.Integral) else repr(_number(float(x), where)) for x in row]
             for row in rows]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(cells)


def read_columns(path, names) -> list:
    """The columns headed ``names``, in that order, as lists of floats."""
    cols = [[] for _ in names]
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = [c.strip() for c in next(reader, [])]
        if not header:
            raise ValueError(f"{path} is empty; expected a header naming {', '.join(names)}")
        for n in names:
            if n not in header:
                raise ValueError(f"expected a {n!r} column in {path}, got {header!r}")
        idx = [header.index(n) for n in names]
        for row in filter(None, reader):  # blank lines are skipped
            where = f"{path}, line {reader.line_num}"
            if len(row) <= max(idx):
                raise ValueError(f"{where}: row {row!r} is short of {header!r}")
            for col, j in zip(cols, idx):
                col.append(_number(row[j], where))
    return cols


def _number(text, where: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{where}: {text!r} is not a finite number")
    return x
