"""The README's library quickstart runs as written and prints what its first comment says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs_and_prints_the_commented_total_phase():
    code = _quickstart()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "quickstart"})
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    comment = first_print.split("#", 1)[1].strip()
    assert comment == "-100.49875621..."
    assert out.getvalue().splitlines()[0].startswith(comment.rstrip("."))
