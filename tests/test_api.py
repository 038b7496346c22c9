"""The package's public names, and the README's Python API example."""
import pathlib
import re

import soqn

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in soqn.__all__ if not hasattr(soqn, name)]
    assert missing == []


def test_readme_example_prints_what_its_comments_say(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    qber, reason, outcome = capsys.readouterr().out.split()
    assert abs(float(qber) - 0.25) < 0.05
    assert (reason, outcome) == ("qber_exceeds_threshold", "delivered")
