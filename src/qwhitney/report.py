"""Per-check result record of the identity catalogue, and the one pass/fail rule."""

from __future__ import annotations

from .modes import Scalar, canonical_text
from .record import Record

#: Relative tolerance of a float-mode comparison in `checked`.
FLOAT_REL_TOL = 1e-9


class IdentityReport(Record):
    """One identity instance at one parameter point.

    `point` carries the parameter values and the identity-specific indices;
    `passed` is decided by `checked`, which builds every report.
    """

    __slots__ = _fields = ("identity", "point", "lhs", "rhs", "passed")

    def __init__(self, identity: str, point: dict, lhs: Scalar, rhs: Scalar, passed: bool):
        # Built once per check, so the slots are stored directly: half the cost of _set.
        store = object.__setattr__
        store(self, "identity", identity)
        store(self, "point", point)
        store(self, "lhs", lhs)
        store(self, "rhs", rhs)
        store(self, "passed", passed)

    def as_json_dict(self) -> dict:
        return {
            "id": self.identity,
            "point": self.point,
            "lhs": canonical_text(self.lhs),
            "rhs": canonical_text(self.rhs),
            "pass": self.passed,
        }


def checked(identity: str, params, indices: dict, lhs: Scalar, rhs: Scalar) -> IdentityReport:
    """The report of lhs against rhs at params' point plus indices: a pass is exact
    equality in exact modes, |lhs - rhs| <= FLOAT_REL_TOL * max(1, |rhs|) in float mode."""
    if params.qmode.is_exact:
        passed = lhs == rhs
    else:
        passed = abs(lhs - rhs) <= FLOAT_REL_TOL * max(1.0, abs(rhs))
    return IdentityReport(identity, params.point(**indices), lhs, rhs, passed)
