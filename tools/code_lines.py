"""Count the code lines of a Python package, module by module.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the string statement that opens a module, class or
function). Blank lines and comment-only lines do not count; a statement that
spans several lines counts each of them.

    python tools/code_lines.py [PACKAGE_DIR]    # default: src/glskit

prints one row per module, largest first, and the total.
"""

import ast
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the Python source file ``path``."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(pathlib.Path(path).read_bytes())))


def main(argv):
    package = pathlib.Path(argv[1] if len(argv) > 1 else "src/glskit")
    counts = {p.name: code_lines(p) for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main(sys.argv)
