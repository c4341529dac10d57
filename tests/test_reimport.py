"""Re-importing the package frees the copy it replaces.

A module-level typing alias such as Union[A, B] is cached inside typing and
holds its classes, and through their methods the whole module, so every
re-import would keep one more copy of the package alive for good.  The
benchmark harness imports the package afresh several times per process.
The check runs in a child interpreter, so the test process keeps its one
copy."""

import subprocess
import sys

SCRIPT = """
import gc, importlib, sys
for _ in range(4):
    for name in [m for m in sys.modules if m.split(".")[0] == "spectratile"]:
        del sys.modules[name]
    importlib.import_module("spectratile")
gc.collect()
names = [
    o["__name__"]
    for o in gc.get_objects()
    if isinstance(o, dict) and "__loader__" in o
    and str(o.get("__name__", "")).split(".")[0] == "spectratile"
]
print(len(names) - len(set(names)))
"""


def test_earlier_copies_are_collected():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"
