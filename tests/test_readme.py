"""The README's library tour runs, and gives the values its comments state;
its command lines parse."""
import ast
import re
import shlex
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from qmeter.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_values() -> dict:
    """Run the tour's code block statement by statement and return the value
    of each bare expression, keyed by its source text."""
    text = README.read_text(encoding="utf-8")
    source = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[segment] = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                                   namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_the_library_tour_gives_the_values_in_its_comments():
    values = _tour_values()
    assert values["report.total"] == pytest.approx(4 / 9, abs=1e-12)
    assert values["qmeter.conclusive_classes(scen, state)"] == ("same_diff", "diff_same")
    assert values['qmeter.rank(ops["diff_diff"].no_error)'] == 3
    assert values["qmeter.outcome_table(a, b, state).shape"] == (2, 2, 2, 2)
    assert_allclose(values["qmeter.class_probabilities(a, a, state)[1:3]"], [0, 0],
                    rtol=0, atol=1e-12)
    assert values["qmeter.mc_agrees(mean, se, exact)"][0] is True
    assert values['result.results["different"].different_rate'] == pytest.approx(1 / 3, abs=0.003)
    assert values['result.results["equal"].different_verdicts'] == 0


def _cli_lines() -> list:
    """The qmeter command lines of the README's "Command line" block, with
    backslash continuations joined, as argument lists without the program."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv[1:] for argv in lines if argv[:1] == ["qmeter"]]


@pytest.mark.parametrize("argv", _cli_lines(), ids=" ".join)
def test_the_command_line_block_parses(argv):
    # parsed, not run: a renamed flag or choice makes argparse exit
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
