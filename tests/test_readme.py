"""The README's Example section and example config run against the
current library API and command line, and its code references name what
the package defines."""

import ast
import re
import subprocess
import sys
from pathlib import Path

from test_source_hygiene import PACKAGE, defined_names

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


def test_readme_config_runs(tmp_path):
    section = README.read_text().split("\n## Config file schema\n", 1)[1]
    config = tmp_path / "run.json"
    config.write_text(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    out_dir = tmp_path / "out"
    command = [sys.executable, "-m", "framecache.cli", "run", "--config", str(config)]
    result = subprocess.run(command + ["--out", str(out_dir)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in out_dir.glob("*.csv")) == [
        "policy_sweep_frames.csv",
        "policy_sweep_summary.csv",
    ]


def test_readme_code_references_exist():
    # Every `<module>.<name>` (or `framecache.<module>.<name>`) in the README
    # must name something that framecache module defines; the module is
    # read with ast, as test_source_hygiene reads it.
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    references = re.findall(r"`(?:framecache\.)?(\w+)\.(\w+)", README.read_text())
    checked = [(module, name) for module, name in references if module in modules]
    assert checked
    missing = [
        f"{module}.{name}"
        for module, name in checked
        if name not in defined_names(ast.parse(modules[module].read_text()))
    ]
    assert not missing, f"README names what its modules do not define: {missing}"
