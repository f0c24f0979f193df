"""CSV ingestion and emission: header row, UTF-8, '.' decimal separator,
comma delimiter, no locale dependence. Floats are serialized with 17
significant digits so that emit-then-read reproduces values exactly; files
are written atomically (temp file + rename).

Input rules: columns are found by header name; columns nothing reads are
ignored; blank lines are skipped; UTF-8 with or without a byte-order mark.
A requested column named twice in the header is refused. Errors name the
file's own line: the header is line 1, and a row whose quoted field spans
lines is reported at the line where it ends."""

from __future__ import annotations

import csv
import os
import tempfile
from collections.abc import Callable, Iterable

from .errors import NestError


class CsvFormatError(NestError):
    def __init__(self, path: str, line: int, detail: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {detail}")


def fmt_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv_atomic(path: str, header: list[str], rows: Iterable[tuple]) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", suffix=".csv", dir=d)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([fmt_value(v) for v in row])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path: str, columns: dict[str, Callable[[str], object]]) -> list[list]:
    """One list per requested column, in the mapping's order, each value
    converted as its row is read; a converter's ValueError is a CsvFormatError."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(path, 1, "empty file")
        header = [h.strip() for h in header]
        missing = [c for c in columns if c not in header]
        if missing:
            raise CsvFormatError(path, 1, f"missing required columns {missing}")
        repeated = [c for c in columns if header.count(c) > 1]
        if repeated:
            raise CsvFormatError(path, 1, f"required columns named more than once {repeated}")
        fields = [(header.index(c), convert, []) for c, convert in columns.items()]
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(path, reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            try:
                for i, convert, values in fields:
                    values.append(convert(row[i]))
            except ValueError as e:
                raise CsvFormatError(path, reader.line_num, str(e)) from None
    return [values for _, _, values in fields]
