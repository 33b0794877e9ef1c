"""README's library quick start runs as written, so a change to a public
signature cannot leave the documented call stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start (library)\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} quick start", "exec"), {})
    iterations, converged, _err = capsys.readouterr().out.split()
    assert int(iterations) > 1 and converged == "True"
