"""The size of ``src/tbmpsk``: its total lines, and its code lines, counted
with ``tokenize`` as the lines that hold a token other than a comment, a
docstring or a line break, so blank lines, comments and docstrings count
only in the total.

    python tests/src_lines.py

A docstring here is any statement that is one string literal (or several,
implicitly joined).  Prints one line per module and the totals.  Not
collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tbmpsk"
SKIP = {tokenize.ENCODING, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.COMMENT}


def code_lines(path: Path) -> set[int]:
    """The numbers of the lines that hold code, each line of a multi-line
    token included."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIP:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return lines


def main() -> None:
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        n, c = len(path.read_text().splitlines()), len(code_lines(path))
        print(f"{path.name:16} {n:5} {c:5}")
        total, code = total + n, code + c
    print(f"{'src/tbmpsk':16} {total:5} {code:5}  (total, code only)")


if __name__ == "__main__":
    main()
