"""README stays true: its Python examples run, and its feature list names only public names."""

import re
from pathlib import Path

import mvop

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_feature_list_names_public_attributes():
    # the bullets before the first blank line after "* **", with their continuation lines
    bullets = re.search(r"^\* \*\*.*?(?=\n\n)", README, flags=re.M | re.S).group(0)
    names = [name for name in re.findall(r"`([^`]+)`", bullets) if name.isidentifier()]
    assert "build_gradations" in names and "self_adjointness_bound" in names
    assert [name for name in names if not hasattr(mvop, name)] == []
