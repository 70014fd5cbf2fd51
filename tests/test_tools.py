import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
ab = _tool("ab")

SAMPLE = '''"""Module docstring,
over two lines."""

import re  # a comment after code counts as code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return text
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the assignment, return
    assert code_lines.code_lines(SAMPLE) == 6


def test_code_lines_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert {name for _, name in rows[:-1]} == {
        path.name for path in code_lines.SRC.glob("*.py")}
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])


def test_ab_times_every_layer_of_both_pipelines(capsys):
    # this checkout against itself: one line per m, pair kind and layer,
    # parse, the Fock-basis layers, mv_mul and render, two positive
    # medians and their ratio
    assert ab.LAYERS == ("parse", "blades_to_efb", "efb_product",
                         "efb_to_blades", "pipeline", "mv_mul", "render")
    assert ab.main([str(TOOLS.parent), "--m-min", "2", "--m-max", "3",
                    "--rounds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# parent ")
    assert lines[1].split() == ["m", "pair", "layer", "parent", "us",
                                "change", "us", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [row[:3] for row in rows] == [
        [m, pair, layer] for m in ("2", "3") for pair in ("dense", "sparse")
        for layer in ab.LAYERS]
    for _, _, _, old, new, ratio in rows:
        assert float(old) > 0 and float(new) > 0
        # the medians are printed to 0.1 us, the ratio to 0.01
        want = float(old) / float(new)
        assert abs(float(ratio) - want) <= 0.05 * want + 0.005
