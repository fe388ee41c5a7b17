"""A ball nested thousands of digit levels below its root: the union walk
splits it without recursion, and the command line answers on it."""

from fractions import Fraction

from padic_affine.cli import main
from padic_affine.padic import Ball, PadicContext, split_union

DEPTH = 3000


def test_split_union_cells_of_a_deep_nest():
    # descending from Z_2 to 2^3000 Z_2 leaves one sibling per level beside
    # the innermost ball: DEPTH * (p - 1) + 1 cells, deepest first
    ctx = PadicContext(2)
    root, deep = Ball(ctx, 0, ()), Ball(ctx, -DEPTH, ())
    cells = split_union([(root, 0, 1), (deep, 1, 2)], (0, 0))
    assert len(cells) == DEPTH * (ctx.p - 1) + 1
    assert cells[0][0] is deep and cells[0][1] == (1, 2)
    assert all(values == (1, 0) for _, values in cells[1:])
    assert [cell.radius_exp for cell, _ in cells[1:]] == list(range(-DEPTH, 0))
    assert sum((cell.measure for cell, _ in cells), Fraction(0)) == root.measure


def test_cli_answers_on_a_deep_nest(capsys):
    code = main([
        "--p", "2", "rn",
        "--g", f"aff(a = {{B(0;-{DEPTH}): 2 | tail 1}}, b = {{| tail 0}})",
        "--f", "{B(0;0): 1 | tail 0}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("pass  rn-identity")
