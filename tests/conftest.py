import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest


@pytest.fixture
def corrupt_rows(monkeypatch):
    """Return corrupt(kind): add 1 to every cell of rows 2 and up of that kind's triangles."""
    from qwhitney import whitney

    def corrupt(kind):
        attr = "_first_rows" if kind == "first" else "_second_rows"
        build = getattr(whitney, attr)

        def corrupted(params, nmax, shift):
            rows = build(params, nmax, shift)
            return rows[:2] + tuple(tuple(v + 1 for v in row) for row in rows[2:])

        monkeypatch.setattr(whitney, attr, corrupted)

    return corrupt
