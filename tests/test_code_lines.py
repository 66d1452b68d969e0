"""scripts/code_lines.py: it counts the lines that hold code, and only those."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# 8 code lines: the import, the def, the value string's 3 lines, the x = line
# with its trailing comment, the return and the class line
MODULE = '''"""A module docstring
over two lines."""

import os  # a comment after code


def f():
    """A function docstring."""
    # a comment line
    text = """a value,
not a docstring
"""

    x = 1  # trailing
    """A bare string statement."""
    return x + len(text) + len(os.sep)


class C:
    """A class docstring,
    over two lines."""
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_and_prints_the_total(tmp_path, capsys):
    script = load_script()
    assert script.code_lines(MODULE) == 8
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    script.main([str(tmp_path)])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["a.py", "8"], ["b.py", "1"], ["total", "9"]]
