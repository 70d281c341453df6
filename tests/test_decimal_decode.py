"""The direct decode of weight tokens (``csvblocks.DecimalField``) against ``float()``.

A token of 1 to 15 ASCII digits with at most one point and a nonzero
mantissa is decoded by numpy as mantissa / 10**k and must equal
``float(text)`` bit for bit; every other token must fall back to the token
parser, so that its value or its rejection text is the token parser's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows import csvblocks, panel


def records(tokens):
    """The tokens as one batch of records, one field each."""
    encoded = [token.encode() for token in tokens]
    size = np.array([len(token) for token in encoded], dtype=np.int64)
    end = np.cumsum(size)
    n = len(tokens)
    rec = csvblocks.Records(data=b"".join(encoded), line=np.arange(n), first=np.arange(n),
                            count=np.ones(n, dtype=np.int64), long=np.zeros(n, dtype=bool),
                            start=end - size, end=end)
    return rec, rec.start, rec.end


def fast_decode(tokens):
    """(values, which tokens the numpy decode took)."""
    return csvblocks._decimals(*records(tokens))


def decode(tokens):
    """(values, failed) as the parse decodes a weight column."""
    return csvblocks.DecimalField(panel._parse_weight, np.float64).decode(*records(tokens))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@st.composite
def digit_strings(draw):
    """1 to 15 ASCII digits, leading zeros included, with a point anywhere or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=15))
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    return digits if point is None else digits[:point] + "." + digits[point:]


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(digit_strings(), min_size=1, max_size=40))
def test_decode_equals_float_bit_for_bit(tokens):
    values, fast = fast_decode(tokens)
    positive = [float(token) > 0 for token in tokens]
    assert fast.tolist() == positive  # all-zero mantissas fall back
    want = [float(token) for token in tokens]
    assert bits(values[fast]) == bits([w for w, p in zip(want, positive) if p])
    got, failed = decode(tokens)
    assert failed.tolist() == [not p for p in positive]
    assert bits(got[~failed]) == bits([w for w, p in zip(want, positive) if p])


@pytest.mark.parametrize("token,fast", [
    ("0007", True), ("000.5", True), ("0.000000000001", True), ("5.", True), (".5", True),
    ("123456789012345", True), ("12345678.9012345", True), (".123456789012345", True),
    ("999999999999999", True), ("0.00000000000001", True),
    # 16 digits: the mantissa can pass 2**53, so the row parser reads these
    ("1234567890123456", False), ("0.000000000000001", False), ("9674453.510995965", False),
    ("9.423730038236009", False), ("000000000000001.5", False), ("1.00000000000000000001", False),
    # not digits and one point
    ("", False), (".", False), ("1.2.3", False), (" 2", False), ("2 ", False), ("+5", False),
    ("1e3", False), ("1,5", False), ("١٢", False), ("\x002", False),
])
def test_which_tokens_are_decoded_directly(token, fast):
    values, taken = fast_decode(["650.25", token, "1"])
    assert taken.tolist() == [True, fast, True]
    got, failed = decode(["650.25", token, "1"])
    assert not failed[[0, 2]].any()
    try:
        want = panel._parse_weight(token)
    except ValueError:
        assert failed[1]
    else:
        assert not failed[1] and bits(got[1]) == bits(want)


def test_sixteen_digits_would_round_twice():
    # m / 10**k rounds m first when m > 2**53; float() rounds once.
    token = "9674453.510995965"
    assert float(9674453510995965) / 1e9 != float(token)
    got, failed = decode([token])
    assert not failed[0] and bits(got) == bits([float(token)])


@pytest.mark.parametrize("token", ["0", "0.00", "000", "0.", ".0"])
def test_zero_rejects_with_the_row_parser_text(tmp_path, token):
    path = tmp_path / "p.csv"
    path.write_text(",".join(panel.PAIR_HEADER) + "\n"
                    f"A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,{token}\n", encoding="utf-8")
    data, report = panel.parse_panel_file(path)
    assert len(data) == 0
    assert report.rejections == ((2, f"nonpositive weight {token}"),)
    assert decode([token])[1].tolist() == [True]


def test_every_survey_style_weight():
    # As a survey extract writes them: lognormal around 650, rounded to cents, repr'd.
    rng = np.random.default_rng(7)
    tokens = [repr(w) for w in np.round(rng.lognormal(6.5, 0.4, size=200_000), 2).tolist()]
    values, fast = fast_decode(tokens)
    assert fast.all()
    assert bits(values) == bits([float(token) for token in tokens])
