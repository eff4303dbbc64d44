"""Print the code lines of each ``.py`` file under a directory, and their total.

A line counts when ``tokenize`` gives it at least one token other than
COMMENT, NL, NEWLINE, INDENT, DEDENT, ENCODING or ENDMARKER (a token that
spans lines counts every line it spans), and it lies outside every
docstring: the lines of the first statement of a module, class or function
when that statement is a string literal, as ``ast`` gives them.

    python tools/code_lines.py src/
"""
import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        lines = {line for tok in tokenize.tokenize(fh.readline) if tok.type not in NOT_CODE
                 for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(root: Path) -> None:
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/code_lines.py DIR")
    main(Path(sys.argv[1]))
