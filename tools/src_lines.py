"""Count the lines of each module of a package by kind.

Every line is one of: docstring (inside a module, class or function
docstring), comment (a comment and nothing else), blank, or code; the four
add up to `wc -l`. Docstrings are found with ast, comments with tokenize.

    python tools/src_lines.py [package directory, default src/purekv]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")


def count(text: str) -> dict:
    """The lines of one module's source by kind, and their total."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()  # lines holding a token other than a comment or a line break
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        kind = ("docstring" if number in docstring else "blank" if not line.strip()
                else "code" if number in code else "comment")
        counts[kind] += 1
    return {"lines": len(lines), **counts}


def main(argv) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src/purekv")
    rows = {path.name: count(path.read_text()) for path in sorted(root.glob("*.py"))}
    rows["total"] = {key: sum(row[key] for row in rows.values()) for key in ("lines", *KINDS)}
    print(f"{'module':<14}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, row in rows.items():
        print(f"{name:<14}{row['lines']:>7}" + "".join(f"{row[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main(sys.argv)
