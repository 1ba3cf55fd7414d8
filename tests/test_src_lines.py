"""tools/src_lines.py, which the ROADMAP's source-line gates read, against wc -l
and a module whose every line is of a known kind."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", REPO / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

MODULES = sorted(path.name for path in (REPO / "src" / "purekv").glob("*.py"))

# Line by line: docstring, docstring, blank, comment, code, blank, blank, code,
# docstring, docstring, code, code.
SYNTHETIC = '''"""A module docstring
over two lines."""

# a comment on a line of its own
X = 1  # a comment after code


def f():
    """A function docstring,
    also over two lines."""
    return """a string that is not a docstring,
over two lines"""
'''


@pytest.mark.parametrize("module", MODULES)
def test_a_modules_kinds_add_up_to_wc_l(module):
    text = (REPO / "src" / "purekv" / module).read_text()
    counts = src_lines.count(text)
    assert counts["lines"] == text.count("\n")  # what wc -l counts
    assert sum(counts[kind] for kind in src_lines.KINDS) == counts["lines"]


def test_each_kind_of_line_is_classified():
    assert src_lines.count(SYNTHETIC) == {"lines": 12, "docstring": 4, "comment": 1,
                                          "blank": 3, "code": 4}


def test_the_table_totals_its_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text("# only a comment\n\nY = 2\n")
    src_lines.main(["src_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", *src_lines.KINDS],
                    ["a.py", "12", "4", "1", "3", "4"],
                    ["b.py", "3", "0", "1", "1", "1"],
                    ["total", "15", "4", "2", "4", "5"]]
