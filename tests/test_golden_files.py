"""The golden files' bytes, pinned by SHA-256.

The regenerated n = 2 bundle is compared with its golden byte for byte, but
that comparison still passes when the generator and the golden change
together.  These digests do not move with the code.  A deliberate format
change adds a new golden next to these and pins it here; it never edits
one of them.
"""

import hashlib

import pytest

from conftest import DATA_DIR

DIGESTS = {
    "counterexample_n2.json": "7fc4d947bfaa29dd936320ae44234c9517351c0c2728ecb3b351d0eb03385f34",
    "independence_chain.json": "f760b306799aa771d606240a443aeb642a28c69537db72cbefda3b5adbef0059",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_bytes_are_pinned(name):
    assert hashlib.sha256((DATA_DIR / name).read_bytes()).hexdigest() == DIGESTS[name]
