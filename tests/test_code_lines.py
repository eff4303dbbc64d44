"""``tools/code_lines.py`` counts the lines that hold code: not blank lines,
comments or docstrings, but every line of a string that is not a docstring."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""
import os  # a comment beside code


# a comment alone
class C:
    """Class docstring."""
    x = 1


def f():
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return text
'''


def test_counts_code_lines_per_file_and_in_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("y = 2\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    # import, class, x, def, the string's two lines and return
    assert [line.split() for line in out.splitlines()] == [
        ["1", "b.py"], ["7", "pkg/a.py"], ["8", "total"]]
