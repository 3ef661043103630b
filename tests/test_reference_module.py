"""``repro.reference`` is a test oracle: the package must not use it."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: ``from .reference import X``, ``from . import reference``,
#: ``import repro.reference`` and their variants
IMPORTS_REFERENCE = re.compile(
    r"^\s*(from\s+\S*\breference\b|(from\s+\S+\s+)?import\b.*\breference\b)",
    re.MULTILINE)


def test_nothing_in_src_imports_the_reference_module():
    offenders = [str(path) for path in SRC.rglob("*.py")
                 if path.name != "reference.py"
                 and IMPORTS_REFERENCE.search(path.read_text())]
    assert offenders == []
