"""The published surfaces agree with the code: README's examples and the report schema."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from votebound.abstain import AbstainSolution
from votebound.game import GameSolution
from votebound.schema import PIPELINE_REPORT_SCHEMA

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The first block's comments: v=3, value=0.6, g*=(1,1,1,0.4) and a loss of 0.1625.
    solution = namespace["solution"]
    assert solution.v == 3
    assert solution.value == pytest.approx(0.6, abs=1e-12)
    assert np.allclose(solution.g_star.values, [1.0, 1.0, 1.0, 0.4], rtol=0.0, atol=1e-12)
    assert namespace["loss"] == pytest.approx(0.1625, abs=1e-12)


@pytest.mark.parametrize(
    "key, solution", [("game_solution", GameSolution), ("abstain_solution", AbstainSolution)]
)
def test_report_schema_lists_the_solution_fields_in_order(key, solution):
    null, record = PIPELINE_REPORT_SCHEMA["properties"][key]["oneOf"]
    names = [field.name for field in dataclasses.fields(solution)]
    assert null == {"type": "null"}
    assert list(record["properties"]) == names
    assert record["required"] == names
