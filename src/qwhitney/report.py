"""Per-check result record of the identity catalogue; a check passes when lhs == rhs."""

from __future__ import annotations

from collections.abc import Sequence

from .modes import Scalar, canonical_text
from .record import Record


class IdentityReport(Record):
    """One identity instance at one parameter point.

    `point` carries the parameter values and the identity-specific indices;
    `passed` is decided by `checked`, which builds every report.  `verify`
    builds a check's report only when its result is read (see `Checks`).
    """

    __slots__ = _fields = ("identity", "point", "lhs", "rhs", "passed")

    def __init__(self, identity: str, point: dict, lhs: Scalar, rhs: Scalar, passed: bool):
        self._set(identity=identity, point=point, lhs=lhs, rhs=rhs, passed=passed)

    def as_json_dict(self) -> dict:
        return {
            "id": self.identity,
            "point": self.point,
            "lhs": canonical_text(self.lhs),
            "rhs": canonical_text(self.rhs),
            "pass": self.passed,
        }


def checked(identity: str, params, indices: dict, lhs: Scalar, rhs: Scalar) -> IdentityReport:
    """The report of lhs against rhs at params' point plus indices, passed when
    lhs == rhs.  `Checks` calls it for a check only when that check is read."""
    return IdentityReport(identity, params.point(**indices), lhs, rhs, lhs == rhs)


class Checks(Sequence):
    """One identity's checks at one parameter point, judged where they are made.

    `cells` holds one (indices, lhs, rhs) per check, `len` counts them and
    `failing` lists the positions where lhs != rhs.  Indexing or
    iterating builds each report read through `checked`; none is kept.
    """

    __slots__ = ("identity", "params", "cells", "failing")

    def __init__(self, identity: str, params, cells: list):
        self.identity = identity
        self.params = params
        self.cells = cells
        # `not ==`: Fraction and LaurentPoly define no __ne__, and `!=` reaches
        # their __eq__ through object.__ne__, one call more per check.
        self.failing = [i for i, (_, lhs, rhs) in enumerate(cells) if not lhs == rhs]

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return checked(self.identity, self.params, *self.cells[index])
