"""Count the lines of each module of ``src/tmlab`` by kind.

Every line is exactly one of: docstring (inside the span of a module, class
or function docstring, found with ``ast``), blank, comment (a line whose
only token is a ``tokenize`` comment) or code.  Prints one row per file and
a total row.  With ``--against REF`` each row holds the change of every
count from the file's blob at git ``REF`` (a file missing on one side counts
as empty there).

    python tools/count_lines.py [DIR] [--against REF]
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _at(ref: str, package: Path) -> dict[str, str]:
    """Source of each ``*.py`` blob of ``package`` at git ``ref``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(package), *args], capture_output=True, text=True, check=True).stdout

    names = [n for n in git("ls-tree", "--name-only", ref, "--", ".").splitlines() if n.endswith(".py")]
    return {n: git("show", f"{ref}:./{n}") for n in names}


def _row(name: str, counts: dict[str, int], sign: str = "") -> str:
    cells = [sum(counts.values())] + [counts[k] for k in KINDS]
    return f"{name:<22}" + "".join(f"{c:{sign}{w}}" for c, w in zip(cells, (7,) + (11,) * len(KINDS)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of each module by kind.")
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--against", metavar="REF", help="print the changes from the blobs at git REF")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(args.dir.glob("*.py"))}
    old = {} if args.against is None else _at(args.against, args.dir)
    sign = "" if args.against is None else "+"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<22}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name in sorted(sources.keys() | old.keys()):
        new_counts, old_counts = count(sources.get(name, "")), count(old.get(name, ""))
        counts = {k: new_counts[k] - old_counts[k] for k in KINDS}
        for k in KINDS:
            total[k] += counts[k]
        print(_row(name, counts, sign))
    print(_row("total", total, sign))
    return 0


if __name__ == "__main__":
    sys.exit(main())
