"""The README's library example runs as printed, and the values its comments
state are the values the library returns."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# expression line of the README's python block -> the value its comment states
STATED = {
    "modules.ku_group_at(2, 82)": [3, 1, 1, 1, 1, 1, 1],
    "modules.build_A(2, 5).group_at(82)": [3, 1],
    'adams.einfty_audit(2, 120)["ok"]': True,
}


def python_block():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    return block


def test_readme_python_block_states_what_the_library_returns():
    block = python_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    comments = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        comments[code.strip()] = comment.strip()
    for expr, want in STATED.items():
        assert expr in comments, f"README no longer shows {expr}"
        if isinstance(want, list):
            assert comments[expr].startswith(repr(want)), (expr, comments[expr])
        assert eval(expr, namespace) == want, expr
