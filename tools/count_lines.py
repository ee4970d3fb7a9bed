"""Count the lines of each module of ``src/tmlab`` by kind.

Every line is exactly one of: docstring (inside the span of a module, class
or function docstring, found with ``ast``), blank, comment (a line whose
only token is a ``tokenize`` comment) or code.  Prints one row per file and
a total row.

    python tools/count_lines.py [DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tmlab"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = getattr(first, "value", None)
            if isinstance(first, ast.Expr) and isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(source: str) -> set[int]:
    """Lines that hold a token other than a comment or a line break."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of ``source`` per kind; the counts sum to its line count."""
    docstring, code = _docstring_lines(ast.parse(source)), _code_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstring:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<22}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(package.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<22}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<22}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
