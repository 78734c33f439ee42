"""The package's measure of its own size: code lines per module.

A line counts if it holds a token other than COMMENT, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER (`tokenize`) and lies outside every module,
class and function docstring (`ast`). A string token that spans lines
holds each of them.

Run it by path (pytest does not collect it; its name does not match
`test_*.py`) with one or more directories; it prints each module's count
and each directory's total:

    python tests/code_lines.py src/dephnet bench
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    token_lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            token_lines.update(range(token.start[0], token.end[0] + 1))
    return len(token_lines - docstring_lines)


def main(directories: list[str]) -> None:
    for directory in directories:
        root = Path(directory)
        counts = {path.relative_to(root).with_suffix("").as_posix():
                  code_lines(path.read_text(encoding="utf-8"))
                  for path in sorted(root.rglob("*.py"))}
        print(directory)
        by_size = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for module, count in by_size:
            print(f"  {module:<24} {count:>6,}")
        print(f"  {'total':<24} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
