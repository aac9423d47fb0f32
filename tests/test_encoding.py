import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcirc.checks import check_encoding_roundtrip, check_subregister_action
from permcirc.encoding import (
    COMPACT,
    ONEHOT,
    EncodingSpec,
    Infeasible,
    decode,
    encode,
    format_bits,
    subregister_swap,
)
from permcirc.perms import identity
from permcirc.sequences import binary_insertion_sequence, bubble_sequence


def test_spec_widths():
    assert EncodingSpec(4, ONEHOT).num_bits == 16
    assert EncodingSpec(4, COMPACT).num_bits == 8
    assert EncodingSpec(9, COMPACT, reduced=True).num_bits == 24
    assert EncodingSpec(9, ONEHOT, reduced=True).num_bits == 64
    assert EncodingSpec(9, COMPACT, reduced=True).degree == 8


def test_encode_identity_onehot():
    spec = EncodingSpec(2, ONEHOT)
    assert encode(identity(2), spec) == (1, 0, 0, 1)


def test_encode_identity_compact_holds_slot_index():
    spec = EncodingSpec(3, COMPACT)
    # slot t holds bin(t) over 2 bits, MSB first
    assert encode(identity(3), spec) == (0, 0, 0, 1, 1, 0)
    assert format_bits(encode(identity(3), spec), spec) == "00|01|10"


def test_encode_swap_compact_n2():
    spec = EncodingSpec(2, COMPACT)
    assert encode((1, 0), spec) == (1, 0)


def test_roundtrip_s4_both_kinds():
    ok, detail = check_encoding_roundtrip(degrees=(4,), counted=())
    assert ok, detail


def test_roundtrip_reduced_and_degenerate():
    ok, detail = check_encoding_roundtrip(degrees=range(1, 6), counted=())
    assert ok, detail


def test_infeasible_strings():
    spec = EncodingSpec(3, ONEHOT)
    with pytest.raises(Infeasible):
        decode((0,) * 9, spec)
    two_in_a_slot = (1, 1, 0) + (0, 1, 0) + (0, 0, 1)
    with pytest.raises(Infeasible):
        decode(two_in_a_slot, spec)
    repeated_city = (1, 0, 0) + (1, 0, 0) + (0, 0, 1)
    with pytest.raises(Infeasible):
        decode(repeated_city, spec)
    compact = EncodingSpec(3, COMPACT)
    with pytest.raises(Infeasible):
        decode((1, 1, 0, 0, 0, 1), compact)  # slot value 3 out of range


def test_feasible_counts_exhaustive():
    counted = (EncodingSpec(3, ONEHOT), EncodingSpec(4, COMPACT), EncodingSpec(3, COMPACT),
               EncodingSpec(2, ONEHOT),
               EncodingSpec(4, ONEHOT))  # m = 16, the exhaustive-scan cap
    ok, detail = check_encoding_roundtrip(degrees=(), counted=counted)
    assert ok, detail


def test_encode_is_always_feasible():
    ok, detail = check_encoding_roundtrip(degrees=(5,), counted=())
    assert ok, detail


def test_subregister_swap_is_involution_on_all_strings():
    rng = np.random.default_rng(5)
    for n in (3, 4):
        elements = set(bubble_sequence(n).elements) | set(
            binary_insertion_sequence(n).elements
        )
        for kind in (ONEHOT, COMPACT):
            spec = EncodingSpec(n, kind)
            for element in elements:
                images = set()
                for _ in range(1000):
                    bits = tuple(rng.integers(0, 2, spec.num_bits).tolist())
                    swapped = subregister_swap(bits, element, spec)
                    assert subregister_swap(swapped, element, spec) == bits
                    images.add(swapped)
                # bijection witnessed on the sampled strings
                assert len(images) == len(
                    {subregister_swap(b, element, spec) for b in images}
                )


def test_subregister_swap_matches_right_action():
    ok, detail = check_subregister_action()
    assert ok, detail


def test_subregister_swap_block_example():
    # S_4 insertion block at level 2 swaps slots 0<->2 and 1<->3
    spec = EncodingSpec(4, COMPACT)
    element = binary_insertion_sequence(4).elements[-1]
    assert element == (2, 3, 0, 1)
    swapped = subregister_swap(encode(identity(4), spec), element, spec)
    assert decode(swapped, spec) == (2, 3, 0, 1)


def test_subregister_swap_rejects_non_involution():
    # (5, 0, 1) is not a permutation: it is refused, not indexed
    spec = EncodingSpec(3, COMPACT)
    for element in ((1, 2, 0), (5, 0, 1)):
        with pytest.raises(ValueError, match="must be an involution"):
            subregister_swap(encode(identity(3), spec), element, spec)


@settings(max_examples=150)
@given(st.permutations(tuple(range(5))), st.booleans(), st.booleans())
def test_roundtrip_property(p, compact, reduced):
    p = tuple(p)
    n = len(p) + 1 if reduced else len(p)
    spec = EncodingSpec(n, COMPACT if compact else ONEHOT, reduced)
    assert decode(encode(p, spec), spec) == p
