import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    # the library quick start uses the public config fields, so a renamed or
    # deleted field fails here instead of leaving the README silently stale
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["rep"]["classification"] == "corollary2"
    assert namespace["scan"].passed
