"""Per-check result record shared by the identity catalogue and the triangles."""

from __future__ import annotations

from .modes import Scalar, canonical_text
from .record import Record


class IdentityReport(Record):
    """One identity instance at one parameter point.

    `point` carries the parameter values and the identity-specific indices;
    `passed` means lhs == rhs exactly in exact modes, or within the relative
    tolerance `modes.FLOAT_REL_TOL` in float mode.
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
