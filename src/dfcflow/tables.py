"""One reader/writer for every CSV file the pipeline reads or writes.

Files are UTF-8 with `\\n` line endings and a header row.  A reader finds
its columns by name in the header, so extra columns and any column order
are accepted, and it skips blank lines.  A missing or unreadable file, a
missing column or a bad row raises `TableError`, naming the file and line;
a byte that is not UTF-8 names the file only.

`csv.reader` reads every file.  The writer joins with commas a row of
one cell per column whose `%s` text holds no `,`, `"`, CR, LF or NUL and
no `None`, the form `dfcflow`'s own rows take, and hands any other
row to `csv.writer`; both give the same bytes.
"""

from __future__ import annotations

import csv
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import TableError


class Table:
    """A CSV format: two or more named columns, in file order.

    `to_row(value)` gives a value's cells in column order; without it,
    values are written as rows as they are.  `from_row(*cells)` turns the
    cells, strings in column order, back into a value; without it, `read`
    returns the cells as tuples.
    """

    def __init__(self, columns: Sequence[str], to_row: Callable | None = None,
                 from_row: Callable | None = None):
        self.columns = tuple(columns)
        self.to_row = to_row
        self.from_row = from_row

    def write(self, path: str | Path, values: Iterable) -> None:
        rows = values if self.to_row is None else map(self.to_row, values)
        template = ",".join(["%s"] * len(self.columns))
        commas = len(self.columns) - 1
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            write = fh.write
            for cells in map(tuple, chain([self.columns], rows)):
                try:
                    line = template % cells
                except TypeError:  # not one cell per column
                    line = ""
                if (line and line.count(",") == commas and '"' not in line and "\n" not in line
                        and "\r" not in line and "\0" not in line and "None" not in line):
                    write(line + "\n")
                else:
                    writer.writerow(cells)

    def read(self, path: str | Path) -> list:
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                try:
                    return self._convert(reader)
                except UnicodeDecodeError as exc:  # decoded a chunk ahead, so the line is unknown
                    raise TableError(path, f"not UTF-8: {exc.reason}") from exc
                except (ValueError, ArithmeticError, csv.Error) as exc:
                    raise TableError(path, str(exc), max(reader.line_num, 1)) from exc
        except OSError as exc:
            raise TableError(path, f"cannot read: {exc.strerror or exc}") from exc

    def _convert(self, reader) -> list:
        header = next(reader, [])
        position = {name: i for i, name in enumerate(header)}
        missing = [name for name in self.columns if name not in position]
        if missing:
            raise ValueError(f"missing columns {missing}")
        index = [position[name] for name in self.columns]
        width = max(index) + 1
        pick = itemgetter(*index)
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                raise ValueError(f"{len(row)} cells, the header has {len(header)}")
            cells = pick(row)
            out.append(cells if self.from_row is None else self.from_row(*cells))
        return out
