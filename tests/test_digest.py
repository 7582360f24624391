"""A smoke test of tools/digest.py, on the sections that read no benchmark
pool: each prints a well-formed line, the same on a second run, so a name
that the tool imports from qbd and that goes away fails here."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


@pytest.fixture
def digest(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ and bench/ in front
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RANDOM_DRAWS", 30)
    return module


def test_sections_that_read_no_pool_print_the_same_line_twice(digest):
    sections = {"prefix": digest.prefix_section, "classes": digest.class_section,
                "game2cnf": digest.game2cnf_section, "apply": digest.apply_section,
                "classify": digest.classify_section, "pivot_elim": digest.pivot_elim_section,
                "hardness": digest.hardness_section, "engines": digest.engines_section}
    for name, section in sections.items():
        line = section(7).line()
        assert re.fullmatch(rf"{name} [0-9a-f]{{64}} [1-9][0-9]*", line), line
        assert section(7).line() == line
