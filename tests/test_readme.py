import re
from pathlib import Path

from parikhbound import pdn_from_json, reach

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def test_readme_tour_runs():
    # the README's python blocks run as written, so the tour cannot rot
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_network_example_reaches_its_target():
    (block,) = re.findall(r"```json\n(.*?)```", README, re.S)
    assert reach(*pdn_from_json(block)).status == "nonempty"
