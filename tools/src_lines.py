"""Print the size of each ``src/arclift`` module: all lines, and code lines.

A code line is a line that holds part of a statement, counted with
``tokenize``: comments, blank lines and docstrings are not code.  A
docstring here is any statement that is nothing but a string literal.
Standard library only, no options:

    python3 tools/src_lines.py
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arclift"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def count(text):
    """(lines, code lines) of Python source text."""
    code = set()
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in LAYOUT:
            statement.append(tok)
    return len(text.splitlines()), len(code)


def main():
    rows = [(path.name, *count(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>7}{code:>7}")


if __name__ == "__main__":
    main()
