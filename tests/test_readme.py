"""README's Quickstart block runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_prints_what_it_promises():
    text = README.read_text()
    section = text[text.index("## Quickstart") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "3.0 basis"
    assert lines[1] == "1.0"
    assert lines[-1] == "['mult_upper', 'pol_upper', 'pol_lower_cotype']"
