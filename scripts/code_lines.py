"""Code lines of each module of the package, and their total.

A code line holds at least one token that is not a comment, part of a
docstring or whitespace; blank lines, comment lines and docstring lines
are not counted.  A docstring is a string literal that stands as a
statement of its own (a module's, class's or function's first statement,
or a bare string anywhere else).  A line that a multi-line code token
spans (a triple-quoted string that is a value) counts once.  Run it from
the repository root:

    python scripts/code_lines.py            # src/plugmc
    python scripts/code_lines.py some/dir   # any directory of .py files
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plugmc"

# Tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of each string literal that is a statement of its own."""
    return {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docstrings = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(directory: Path) -> dict[str, int]:
    """Code lines of each .py file directly in directory, by file name."""
    return {
        path.name: code_lines(path.read_text())
        for path in sorted(directory.glob("*.py"))
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args(argv)
    counts = count(args.directory)
    for name, lines in counts.items():
        print(f"{name:<20}{lines:>6}")
    print(f"{'total':<20}{sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
