"""README's "Quick start" block runs against the current API and gives what its comments say."""

import ast
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_values():
    """The value of each expression statement of the block, run in order like a REPL."""
    text = README.read_text()
    block = re.search(r"^## Quick start\n+```python\n(.*?)^```", text, re.S | re.M).group(1)
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return values


def test_readme_quick_start_states_what_it_computes():
    closed_form, (d, alpha), (d_mc, stderr), solved = _quick_start_values()
    assert closed_form == pytest.approx(1 / 3, abs=1e-15)               # 1/3
    assert d == pytest.approx(math.sqrt(3) / 6, abs=1e-12)              # sqrt(3)/6
    assert [round(a, 2) for a in alpha] == [1.08, 0.79, 1.08]           # (1.08, 0.79, 1.08)
    # the seeded Monte Carlo cross-check lands within 4 standard errors
    assert abs(d_mc - math.sqrt(3) / 6) < 4 * stderr
    assert solved.lam == pytest.approx(2 + math.sqrt(3), abs=1e-12)     # lam = 2 + sqrt(3)
    assert tuple(solved.polynomial) == (1, -4, 1)                       # R = (1, -4, 1)
