"""CSV ingestion and emission: header row, UTF-8, '.' decimal separator,
comma delimiter, no locale dependence. Floats are serialized with 17
significant digits so that emit-then-read reproduces values exactly; files
are written atomically (temp file + rename)."""

from __future__ import annotations

import csv
import os
import tempfile
from collections.abc import Iterable

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


def read_csv(path: str, required: list[str]) -> list[dict[str, str]]:
    """Read a headered CSV; parse errors carry line numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(path, 1, "empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in required if c not in header]
        if missing:
            raise CsvFormatError(path, 1, f"missing required columns {missing}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    path, lineno, f"expected {len(header)} fields, got {len(row)}"
                )
            rows.append(dict(zip(header, row)))
    return rows

