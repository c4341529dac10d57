"""The certio integer codecs against the plain per-item decoder.

Small canonical integers decode and encode by table lookup; everything
else, and every fault, goes through the per-item path.  Each decode here is
compared with a copy of that per-item decoder: the same value, or the same
exception class and located message.
"""

import json

import pytest

from conftest import DATA_DIR
from spectratile import certio
from spectratile.certio import parse, serialize

GOLDENS = [DATA_DIR / "counterexample_n2.json", DATA_DIR / "independence_chain.json"]

INPUTS = [
    "-257",
    "-256",
    "256",
    "257",
    "0",
    "-0",
    "+1",
    "01",
    " 1",
    "1 ",
    "1_0",
    "١",  # ARABIC-INDIC DIGIT ONE: int() reads it as 1
    "",
    "-",
    str(10**30),
    str(-(10**30)),
    0,
    7,
    -3,
    1.0,
    2.5,
    True,
    False,
    None,
    ["1"],
    [],
    {"a": "1"},
    {},
]


def reference_int(obj):
    if isinstance(obj, str):
        try:
            value = int(obj)
        except ValueError:
            pass
        else:
            if str(value) == obj:
                return value
    raise certio._Bad(f"must be a canonical decimal string, got {obj!r}")


def reference_list(decode_item):
    def decode(obj):
        if not isinstance(obj, list):
            raise certio._Bad("must be an array")
        out = []
        try:
            for x in obj:
                out.append(decode_item(x))
        except certio._Bad as exc:
            raise exc.at(f"[{len(out)}]")
        return tuple(out)

    return decode


reference_ints = reference_list(reference_int)
reference_points = reference_list(reference_ints)


def outcome(decode, obj):
    """The decoded value, or the error class and message as parse reports it."""
    try:
        return decode(obj)
    except certio._Bad as exc:
        error = exc.at(".points").located()
        return type(error), str(error)


@pytest.fixture(autouse=True, scope="module")
def tables():
    """Parse a golden first, so the lookup tables are in place."""
    parse(GOLDENS[0].read_bytes())
    assert certio._FROM_STR["-256"] == -256 and certio._TO_STR[256] == "256"


def placements(x):
    """x as a scalar, at three indices of an int array, and inside points."""
    ints = ["3", "-1", "200", "0", "5"]
    points = [["0", "1"], ["2", "3"], ["4", "5"]]
    yield certio._INT, reference_int, x
    yield certio._INTS, reference_ints, x
    for i in (0, 2, len(ints) - 1):
        yield certio._INTS, reference_ints, ints[:i] + [x] + ints[i + 1 :]
    for i, j in ((0, 0), (1, 1), (2, 1)):
        edited = [list(p) for p in points]
        edited[i][j] = x
        yield certio._POINTS, reference_points, edited
    yield certio._POINTS, reference_points, points[:1] + [x] + points[2:]


@pytest.mark.parametrize("x", INPUTS, ids=repr)
def test_decode_matches_the_per_item_decoder(x):
    for codec, reference, obj in placements(x):
        expected = outcome(reference, obj)
        got = outcome(codec.decode, obj)
        assert got == expected and type(got) is type(expected), obj


def test_the_whole_table_range_decodes():
    values = [str(i) for i in range(-256, 257)]
    assert certio._INTS.decode(values) == tuple(range(-256, 257))
    assert certio._POINTS.decode([values, values[:3]]) == (
        tuple(range(-256, 257)),
        (-256, -255, -254),
    )


def test_a_fault_in_a_golden_is_located_as_before():
    doc = json.loads(GOLDENS[0].read_bytes())
    doc["payload"]["base_spectrum"]["set"]["points"][3][2] = "01"
    with pytest.raises(certio.MalformedCertificate) as info:
        parse(json.dumps(doc))
    assert str(info.value) == (
        "payload.base_spectrum.set.points[3][2]: must be a canonical decimal string, got '01'"
    )


def test_encode_matches_str_of_int():
    values = [*range(-300, 301), True, False, 10**30, -(10**30)]
    for x in values:
        assert certio._INT.encode(x) == str(int(x))
    expected = [str(int(x)) for x in values]
    assert certio._INTS.encode(values) == expected
    assert certio._POINTS.encode([values, values[::-1]]) == [expected, expected[::-1]]


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.name)
def test_golden_reserializes_byte_identically(path):
    data = path.read_bytes()
    assert serialize(parse(data)) == data
