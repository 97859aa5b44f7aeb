"""The README's Example section runs against the current library API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def example_code() -> str:
    section = README.read_text().split("\n## Example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_example_runs(capsys):
    exec(compile(example_code(), str(README), "exec"), {"__name__": "readme_example"})
    refresh_count, eliminated, mean_mse = capsys.readouterr().out.split()
    assert int(refresh_count) >= 1
    assert 0.0 <= float(eliminated) < 1.0
    assert float(mean_mse) >= 0.0
