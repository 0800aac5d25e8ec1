"""The environment variables the package reads are a closed set.

Every setting has one way to be set: a ``ProverOptions`` field, a CLI
flag, or a constant.  Only three ``REPRO_*`` variables have no other
setting — rotating an ``--events-out`` file, and the chaos harness's
fault hook into a daemon process — so they are the only ones any module
under ``src/repro`` may name.
"""

import ast
import re
from pathlib import Path

import repro

ALLOWED = {
    "REPRO_EVENTS_MAX_BYTES",
    "REPRO_EVENTS_KEEP",
    "REPRO_CHAOS_STORE_FULL",
}

_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _named_variables():
    found = {}
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _NAME.fullmatch(node.value)):
                found.setdefault(node.value, str(path.relative_to(root)))
    return found


def test_only_the_three_unflagged_variables_are_read():
    found = _named_variables()
    added = {name: where for name, where in found.items()
             if name not in ALLOWED}
    assert not added, f"environment variables added: {added}"
    assert set(found) == ALLOWED
