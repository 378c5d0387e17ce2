"""Readers for the JSON that comes from outside: robot descriptions and their
manifests, run manifests, anchors files, and dataset manifests and indexes.

A JSON number counts only when it is finite as a float: NaN, Infinity and
integers beyond the float range are refused, and true and false are never
numbers or integers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


class Fields:
    """JSON field readers that raise `error`, the caller's error class, with
    a message that names the field."""

    def __init__(self, error: type[Exception]):
        self.error = error

    def _expect(self, ok: bool, what: str, expected: str, value):
        if not ok:
            raise self.error(f"{what} must be {expected}, got {json.dumps(value)}")
        return value

    def load(self, text: str | bytes, what: str) -> dict:
        """The JSON object that `text` holds."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as err:  # bad encoding, syntax or nesting
            raise self.error(f"{what} is not valid JSON ({err})") from err
        return self.object(doc, what)

    def read(self, path: Path) -> dict:
        """The JSON object in the file at `path`."""
        try:
            data = path.read_bytes()
        except OSError as err:
            raise self.error(f"cannot read {path}: {err.strerror}") from err
        return self.load(data, str(path))

    def object(self, value, what: str) -> dict:
        if not isinstance(value, dict):
            raise self.error(f"{what} must be a JSON object, got {type(value).__name__}")
        return value

    def required(self, doc: dict, key: str, what: str):
        if key not in doc:
            raise self.error(f"{what} has no {key!r}")
        return doc[key]

    def string(self, value, what: str) -> str:
        return self._expect(isinstance(value, str), what, "a string", value)

    def boolean(self, value, what: str) -> bool:
        return self._expect(isinstance(value, bool), what, "true or false", value)

    def integer(self, value, what: str, minimum: int | None = None) -> int:
        ok = _is_integer(value) and (minimum is None or value >= minimum)
        bound = "" if minimum is None else f" of at least {minimum}"
        return self._expect(ok, what, f"an integer{bound}", value)

    def integers(self, value, what: str, minimum: int | None = None) -> list[int]:
        self._expect(isinstance(value, list), what, "a list of integers", value)
        return [self.integer(x, what, minimum) for x in value]

    def number(self, value, what: str) -> float:
        return float(self._expect(_is_number(value), what, "a finite number", value))

    def numbers(self, value, count: int, what: str) -> np.ndarray:
        """A list of `count` finite numbers; nine may also come as 3 rows of 3."""
        flat = value
        if count == 9 and isinstance(value, list) and all(isinstance(row, list) for row in value):
            flat = [x for row in value if len(row) == 3 for x in row]
        self._expect(isinstance(flat, list) and len(flat) == count, what,
                     f"a list of {count} numbers", value)
        return np.array([self.number(x, what) for x in flat])

    def rows(self, value, what: str, integer: bool = False, min_rows: int = 0) -> np.ndarray:
        """A list of at least `min_rows` rows of 3 finite numbers, or of 3
        integers that fit in int64 when `integer`."""
        kind = "integers" if integer else "numbers"
        fits = (lambda x: _is_integer(x) and -2**63 <= x < 2**63) if integer else _is_number
        least = f"{min_rows} or more " if min_rows else ""
        self._expect(isinstance(value, list) and len(value) >= min_rows, what,
                     f"a list of {least}rows of 3 {kind}", value)
        for k, row in enumerate(value):
            self._expect(isinstance(row, list) and len(row) == 3 and all(map(fits, row)),
                         f"{what} row {k}", f"3 {kind}", row)
        return np.array(value, dtype=np.int64 if integer else float).reshape(-1, 3)

    def names(self, value, what: str) -> tuple[str, ...]:
        ok = isinstance(value, list) and all(isinstance(name, str) for name in value)
        return tuple(self._expect(ok, what, "a list of names", value))

    def box(self, value, what: str) -> tuple[np.ndarray, np.ndarray]:
        """`{"min": [x, y, z], "max": [x, y, z]}` with min < max on every axis."""
        self._expect(isinstance(value, dict) and sorted(value) == ["max", "min"], what,
                     'an object {"min": [x, y, z], "max": [x, y, z]}', value)
        lo, hi = (self.numbers(value[corner], 3, f"{what} {corner!r}") for corner in ("min", "max"))
        self._expect(np.all(lo < hi), what, "a box with 'min' below 'max' on every axis", value)
        return lo, hi
