"""The token tables' index (``csvblocks.FieldTable``) against a dict of the token parser.

A block's tokens are looked up by multiply-shift hashing while the table's
keys are uint64 and at most ``_INDEX_KEYS``, and by bisection otherwise.
Whichever way, every token must decode to what the parser makes of its
text, or fail with the parser's error text: after the index is rebuilt
for a token first met in a late block, when the first multiplier puts two
keys in one slot, past the cut-off, once a long token widens the keys to
``S<n>``, and for the NUL-ended and over-long tokens that are set aside.
"""

import csv

import numpy as np
import pytest

from lmflows import csvblocks, panel

from test_decimal_decode import records
from test_parse_blocks import PAIR_HEAD, assert_parses_like_the_loop


def parsed(text):
    """(value, error text) as ``panel._parse_age`` reads ``text``."""
    try:
        return panel._parse_age(text), None
    except ValueError as exc:
        return 0, str(exc)


def decode_blocks(table, blocks):
    """Decode each block of tokens in turn; each token must read as the parser reads it."""
    want = {}
    for tokens in blocks:
        values, failed = table.decode(*records(tokens))
        for token, value, bad in zip(tokens, values.tolist(), failed.tolist()):
            value_of, error = want.setdefault(token, parsed(token))
            assert (value, bad) == (value_of, error is not None), token
            if bad:
                assert table.errors[token.encode()] == error
    return table


def age_table():
    return csvblocks.FieldTable(panel._parse_age, np.int64)


def slot(token, multiplier, bits):
    key = int.from_bytes(token.encode(), "little")
    return (key * int(multiplier)) % (1 << 64) >> (64 - bits)


def test_a_token_first_met_in_a_late_block_enters_the_index():
    table = decode_blocks(age_table(), [["21", "22", "21", "x"]])
    assert table.index is not None and len(table.keys) == 3
    decode_blocks(table, [["22", "23", "21", "x", "23"], ["23", "-1", "21"]])
    assert table.index is not None and len(table.keys) == 5
    multiplier, shift, slots = table.index
    assert slots[((table.keys * multiplier) >> shift).view(np.int64)].tolist() == list(range(5))


def test_keys_the_first_multiplier_puts_in_one_slot_take_the_next():
    first = csvblocks._MULTIPLIERS[0]
    by_slot = {}
    for i in range(1000):  # 2 keys get 32 slots
        pair = by_slot.setdefault(slot(str(i), first, 5), [])
        pair.append(str(i))
        if len(pair) == 2:
            break
    table = decode_blocks(age_table(), [pair + pair[::-1]])
    assert table.index is not None and table.index[0] != first
    decode_blocks(table, [pair + ["7", pair[0]]])


def test_a_table_past_the_cut_off_is_searched_by_bisection():
    tokens = [str(i) for i in range(csvblocks._INDEX_KEYS)] + ["x", "-3"]
    table = decode_blocks(age_table(), [tokens[:100]])
    assert table.index is not None
    decode_blocks(table, [tokens[::-1]])
    assert len(table.keys) > csvblocks._INDEX_KEYS and table.index is None
    decode_blocks(table, [tokens[::3], ["99999", "0"]])


def test_a_table_widened_to_s_keys_is_searched_by_bisection():
    table = decode_blocks(age_table(), [["21", "x", "34"]])
    assert table.index is not None
    decode_blocks(table, [["000000000021", "21", "y", "34"]])
    assert table.keys.dtype == np.dtype("S12") and table.index is None
    decode_blocks(table, [["34", "x", "22"], ["0000000000000000000022", "22"]])


SET_ASIDE = ["21", "21\x00", "1" * 70, "\x00", "21", "1" * 70, "21\x00", "2" * 65, "21\x00\x00"]


def test_set_aside_tokens_are_indexed_by_their_numbers():
    table = decode_blocks(age_table(), [SET_ASIDE[:3], SET_ASIDE[3:]])
    assert table.keys.dtype == np.uint64 and table.index is not None
    assert len(table.aside) == 5


@pytest.mark.parametrize("block_bytes", [16, 64, csvblocks.BLOCK_BYTES])
def test_set_aside_tokens_in_small_blocks_parse_like_the_loop(block_bytes):
    rows = [PAIR_HEAD] + [f"A,2019.1,2019.2,EDU,TE,{age},F,1,SOUTH,1" for age in SET_ASIDE]
    assert_parses_like_the_loop(("\n".join(rows) + "\n").encode(), block_bytes,
                                csv.field_size_limit())
