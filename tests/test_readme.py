"""The README's Python example runs against the names the package exports."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    exact_e, lps_upper, lower_l, sane = capsys.readouterr().out.split()
    assert float(lower_l) <= float(exact_e) <= float(lps_upper)
    assert sane == "True"
