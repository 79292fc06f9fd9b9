"""README's ``python`` blocks run as written, in order and in one
namespace, so the docs cannot keep a name the package no longer has."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    cfg, frame = namespace["cfg"], namespace["frame"]
    assert len(namespace["rows"]) == frame.n == cfg.dataset_size
    assert namespace["short"].dataset_size == 600
