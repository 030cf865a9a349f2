"""Operand images, the reference convolution, and result comparison.

reference_convolution is itself checked against a second, numpy-based route
so the arithmetic ground truth does not rest on a single implementation.
"""

import hashlib
from array import array

import numpy as np
import pytest

from opconv.oracle import MemoryImage, compare, reference_convolution
from opconv.workload import (WORD_SIZE, ConfigError, LayerSpec, OpStream,
                             enumerate_ops, make_layouts)


def build(layer, row_pitch=0, seed=0):
    geom = make_layouts(layer, row_pitch)
    return geom, MemoryImage(geom, seed)


def input_words(img, addr, n):
    """The n input words from addr, sliced from the image by word index."""
    i = (addr - img.input_base) // WORD_SIZE
    return img.input_words[i:i + n]


def weight_words(img, addr, n):
    """The n weight words from addr, sliced from the image by word index."""
    i = (addr - img.weight_base) // WORD_SIZE
    return img.weight_words[i:i + n]


# --------------------------------------------------------------------- image

def test_image_is_deterministic_per_seed():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    _, img_a = build(layer, seed=7)
    _, img_b = build(layer, seed=7)
    _, img_c = build(layer, seed=8)
    assert img_a.input_words == img_b.input_words
    assert img_a.weight_words == img_b.weight_words
    assert img_a.input_words != img_c.input_words


@pytest.mark.parametrize("seed,digest", [
    (0, "87d65347c6403e4e39e210f7982023980a5032c374a42e486db0ecc72aa754cc"),
    (1, "196d9ebadececbaf22ba819a099671743b3a0e5e9c5ca714251b044ca9d28778"),
], ids=["seed0", "seed1"])
def test_operand_values_are_pinned(seed, digest):
    # the operand stream of a seed is part of every recorded result: the
    # rng seed string, the draw range and the draw order must not change
    layer = LayerSpec("pad", 2, 2, 6, 6, 3, 3, padding=1)
    _, img = build(layer, seed=seed)
    words = ",".join(map(str, img.input_words + img.weight_words))
    assert hashlib.sha256(words.encode()).hexdigest() == digest


def test_int_values_stay_small():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    _, img = build(layer)
    assert all(-8 <= v <= 8 for v in img.input_words)
    assert all(-8 <= v <= 8 for v in img.weight_words)


def test_padding_cells_are_zero():
    layer = LayerSpec("pad", 2, 2, 6, 6, 3, 3, padding=1)
    geom, img = build(layer)
    top = input_words(img, geom.input_vec_addr(0, 0, 0), layer.padded_w)
    assert top == [0] * layer.padded_w
    left = [input_words(img, geom.input_vec_addr(1, r, 0), 1)[0]
            for r in range(layer.padded_h)]
    right = [input_words(img, geom.input_vec_addr(1, r, layer.padded_w - 1),
                         1)[0]
             for r in range(layer.padded_h)]
    assert left == right == [0] * layer.padded_h


def test_reads_outside_region_rejected():
    layer = LayerSpec("toy", 1, 1, 4, 4, 3, 3)
    geom, img = build(layer)
    # dot checks nothing; check_reads rejects a stream with a read that runs
    # past the end of the input words or starts before the weight words
    reads_past_end = OpStream(array("q", [geom.input_vec_addr(0, 3, 2)]),
                              array("q", [geom.weight.base_address]),
                              array("q", [geom.output_addr(0, 0, 0)]))
    with pytest.raises(ConfigError, match="toy: op stream reads input"):
        img.check_reads(reads_past_end)
    reads_before_start = OpStream(array("q", [geom.input_vec_addr(0, 0, 0)]),
                                  array("q", [geom.weight.base_address - 4]),
                                  array("q", [geom.output_addr(0, 0, 0)]))
    with pytest.raises(ConfigError, match="toy: op stream reads weight"):
        img.check_reads(reads_before_start)


def test_dot_on_planted_vectors():
    # plant two input rows and two filter rows with known values and check
    # the three cross products used throughout the scheme tests
    layer = LayerSpec("plant", 1, 1, 8, 8, 3, 3)
    geom, img = build(layer, row_pitch=4096)
    row_words = geom.input.row_stride // 4
    img.input_words[1 * row_words:1 * row_words + 3] = [3, 0, 1]
    img.input_words[2 * row_words:2 * row_words + 3] = [2, 4, 2]
    img.weight_words[0:3] = [-1, 0, 1]
    img.weight_words[3:6] = [2, -2, 0]
    r1 = geom.input_vec_addr(0, 1, 0)
    r2 = geom.input_vec_addr(0, 2, 0)
    w0 = geom.weight_vec_addr(0, 0, 0)
    w1 = geom.weight_vec_addr(0, 0, 1)
    assert (r1, r2) == (0x1000, 0x2000)
    assert img.dot(r1, w0) == -2
    assert img.dot(r2, w1) == -4
    assert img.dot(r2, w0) == 0


# ----------------------------------------------------------------- reference

def numpy_convolution(geom, image):
    """Second opinion: materialize dense arrays and slide the window."""
    layer = geom.layer
    inp = np.zeros((layer.in_channels, layer.padded_h, layer.padded_w), np.int64)
    for ic in range(layer.in_channels):
        for r in range(layer.padded_h):
            inp[ic, r] = input_words(image, geom.input_vec_addr(ic, r, 0),
                                     layer.padded_w)
    wgt = np.zeros((layer.out_channels, layer.in_channels,
                    layer.filter_h, layer.filter_w), np.int64)
    for oc in range(layer.out_channels):
        for ic in range(layer.in_channels):
            for fr in range(layer.filter_h):
                wgt[oc, ic, fr] = weight_words(
                    image, geom.weight_vec_addr(oc, ic, fr), layer.filter_w)
    s = layer.stride
    out = {}
    for oc in range(layer.out_channels):
        for oy in range(layer.out_h):
            for ox in range(layer.out_w):
                patch = inp[:, oy * s:oy * s + layer.filter_h,
                            ox * s:ox * s + layer.filter_w]
                val = (patch * wgt[oc]).sum()
                out[geom.output_addr(oc, oy, ox)] = int(val)
    return out


# each id names the layer and the arithmetic both routes compute in.  The
# reference does its own stride arithmetic, so the last two cover padding,
# stride, several channels and a non-square filter together, packed and with
# input rows pitched 4096 bytes apart
MIXED = LayerSpec("mixed", 3, 2, 7, 7, 3, 5, stride=2, padding=1)


@pytest.mark.parametrize("layer,row_pitch", [
    (LayerSpec("plain", 2, 3, 6, 6, 3, 3), 0),
    (LayerSpec("padded", 2, 2, 6, 6, 3, 3, padding=1), 0),
    (LayerSpec("strided", 1, 2, 9, 9, 3, 3, stride=2), 0),
    (MIXED, 0),
    (MIXED, 4096),
], ids=["layer0-int32", "layer1-int32", "layer2-int32", "layer3-int32",
        "layer3-pitched-int32"])
def test_reference_agrees_with_numpy(layer, row_pitch):
    geom, img = build(layer, row_pitch)
    ref = reference_convolution(geom, img)
    alt = numpy_convolution(geom, img)
    assert ref.keys() == alt.keys()
    assert ref == alt


@pytest.mark.parametrize("scale", [1, 0, -3, 2**20])
@pytest.mark.parametrize("layer", [
    LayerSpec("wide", 2, 3, 9, 11, 3, 11),
    MIXED,
    LayerSpec("pointwise", 3, 2, 5, 5, 1, 1),
])
def test_products_equal_dot_on_every_op(layer, scale):
    # the packed products hold for any word values, also far outside the
    # image's own [-8, 8], and read the words as they are when asked
    geom, img = build(layer, seed=5)
    img.input_words[:] = [scale * v for v in img.input_words]
    img.weight_words[:] = [scale * v - (scale > 1) for v in img.weight_words]
    ops = enumerate_ops(geom)
    product = img.products(ops)
    assert product != img.dot                      # the packed form
    assert [product(ia, wa) for ia, wa in zip(ops.inp, ops.wgt)] == \
        [img.dot(ia, wa) for ia, wa in zip(ops.inp, ops.wgt)]


def test_products_of_a_stream_without_weight_reuse_are_dot():
    # every op of a 1x1-output layer has its own filter row
    layer = LayerSpec("once", 2, 4, 3, 3, 3, 3)
    geom, img = build(layer)
    assert img.products(enumerate_ops(geom)) == img.dot


def test_reference_single_window_by_hand():
    layer = LayerSpec("tiny", 1, 1, 3, 3, 3, 3)
    geom, img = build(layer)
    want = sum(img.dot(geom.input_vec_addr(0, r, 0),
                       geom.weight_vec_addr(0, 0, r)) for r in range(3))
    assert reference_convolution(geom, img) == {geom.output_addr(0, 0, 0): want}


def test_reference_covers_op_stream_accumulation():
    # summing dot() over the enumerated ops per output must reproduce the
    # reference exactly; this ties the op stream to the arithmetic oracle
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    geom, img = build(layer)
    acc = {}
    ops = enumerate_ops(geom)
    for ia, wa, addr in zip(ops.inp, ops.wgt, ops.out):
        acc[addr] = acc.get(addr, 0) + img.dot(ia, wa)
    assert acc == reference_convolution(geom, img)


@pytest.mark.parametrize("value,fits", [
    (2**31 - 1, True), (-2**31, True), (2**31, False), (-2**31 - 1, False),
])
def test_reference_rejects_outputs_outside_int32(value, fits):
    # one 1x1 op: the output is input word x weight word
    layer = LayerSpec("one", 1, 1, 1, 1, 1, 1)
    geom, img = build(layer)
    img.input_words[0], img.weight_words[0] = value, 1
    addr = geom.output_addr(0, 0, 0)
    if fits:
        assert reference_convolution(geom, img) == {addr: value}
    else:
        with pytest.raises(ConfigError, match=f"one: .*0x{addr:x}.*int32"):
            reference_convolution(geom, img)


def test_reference_rejects_int32_overflow_of_a_sum():
    # nine products of 2**30 each fit a Python int but not an int32 sum
    layer = LayerSpec("big", 1, 1, 3, 3, 3, 3)
    geom, img = build(layer)
    img.input_words[:] = [2**15] * len(img.input_words)
    img.weight_words[:] = [2**15] * len(img.weight_words)
    with pytest.raises(ConfigError, match=f"big: .*0x{geom.output_addr(0, 0, 0):x}"):
        reference_convolution(geom, img)


@pytest.mark.parametrize("side", ["input", "weight"])
def test_reference_rejects_an_image_one_word_short(side):
    # slices truncate silently, so a short image must fail the bounds check
    # and not give a shorter dot product
    geom, img = build(MIXED)
    getattr(img, f"{side}_words").pop()
    with pytest.raises(ConfigError, match=f"^mixed: reference reads {side} word"):
        reference_convolution(geom, img)


def test_reference_is_linear_in_inputs():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3, padding=1)
    geom, img = build(layer, seed=3)
    ref = reference_convolution(geom, img)
    img.input_words[:] = [3 * v for v in img.input_words]
    assert reference_convolution(geom, img) == {a: 3 * v for a, v in ref.items()}
    img.weight_words[:] = [-2 * v for v in img.weight_words]
    assert reference_convolution(geom, img) == {a: -6 * v for a, v in ref.items()}


def test_zero_weights_give_zero_outputs():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    geom, img = build(layer)
    img.weight_words[:] = [0] * len(img.weight_words)
    assert all(v == 0 for v in reference_convolution(geom, img).values())


# ------------------------------------------------------------------- compare

def test_compare_exact_int():
    expected = {0: 5, 4: -3}
    good = compare({0: 5, 4: -3}, expected)
    assert good.ok and good.checked == 2 and good.message() == "all 2 outputs match"
    bad = compare({0: 5, 4: -2}, expected)
    assert not bad.ok and len(bad.mismatches) == 1
    assert "0x4" in bad.message()


def test_compare_missing_and_extra():
    res = compare({0: 1, 8: 9}, {0: 1, 4: 2})
    assert not res.ok
    assert any("missing" in m for m in res.mismatches)
    assert any("not produced" in m for m in res.mismatches)
