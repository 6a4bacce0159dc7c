"""README's library tour runs as written, so the documented API cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour():
    """README's one ``python`` block, compiled under README's name."""
    (tour,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return compile(tour, str(README), "exec")


def test_library_tour_runs():
    exec(library_tour(), {})
