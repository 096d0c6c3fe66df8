"""The package's top-level surface and the README's library example."""

import re
import types
from pathlib import Path

import hypident

TOP_LEVEL = {
    # the identity
    "IdentityPoint", "check_identity", "lhs_direct", "rhs_direct", "lhs_fast", "rhs_fast",
    # the triangle routes
    "triangle_row", "r_poly", "l_poly", "r_entry", "r_entry_closed", "l_entry_closed",
    "l_entry_recurrence", "l_poly_from_series", "vanishing_sum",
    # map counts
    "MapCountSpec", "map_count", "summand_equivalence",
}


def test_top_level_names():
    public = {
        name for name, value in vars(hypident).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == TOP_LEVEL


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
