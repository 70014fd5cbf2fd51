"""Count the code lines of each module in src/cliffbits.

A code line holds at least one token that is neither a comment nor a
docstring; blank lines do not count.  A docstring is a string literal
that is the first statement of a module, class or function.  Prints one
line per module and the total:

    python tools/code_lines.py [--parent DIR]

With --parent, DIR is another checkout of this repository, for example
the parent commit unpacked by `git archive`.  Both trees are counted by
this file's rule, and each line gives a module's count in DIR, its count
here and the difference; a module missing from one tree counts 0 there.
The last line gives the totals and the net difference.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cliffbits"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment or a
    docstring."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def counts(src: Path) -> dict[str, int]:
    """The code lines of each module in src, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(
        description="code lines per module, optionally against another "
                    "checkout")
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="another checkout to count beside this one")
    args = parser.parse_args(argv)
    here = counts(SRC)
    if args.parent is None:
        for name, n in here.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(here.values()):6d}  total")
        return 0
    parent = counts(args.parent / "src" / "cliffbits")
    print(f"# parent {args.parent}")
    print(f"{'parent':>6}  {'here':>6}  {'diff':>6}  module")
    rows = [(name, parent.get(name, 0), here.get(name, 0))
            for name in sorted(parent.keys() | here.keys())]
    rows.append(("total", sum(parent.values()), sum(here.values())))
    for name, old, new in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
