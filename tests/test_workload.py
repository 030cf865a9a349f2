"""Layer shapes, address layouts, op enumeration and warp mapping.

The enumeration tests recompute every operand address with inline arithmetic
(no geometry helpers) so a layout bug cannot hide behind its own accessors.
"""

import tracemalloc
from collections import Counter

import pytest

from opconv.workload import (
    ConfigError,
    LayerSpec,
    OpStream,
    Pass,
    alexnet_conv_layers,
    backward_specs,
    enumerate_ops,
    lenet5_layers,
    make_layouts,
    map_to_warps,
    operand_blocks,
    reuse_histogram,
    shrink_layer,
)

INPUT_BASE = 0x0
WEIGHT_BASE = 0x4000_0000
OUTPUT_BASE = 0x8000_0000


# ---------------------------------------------------------------- layer specs

def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec("bad", 0, 1, 4, 4, 3, 3)
    with pytest.raises(ConfigError):
        LayerSpec("bad", 1, 1, 4, 4, 3, 3, stride=-1)
    with pytest.raises(ConfigError):
        LayerSpec("bad", 1, 1, 2, 2, 3, 3)  # filter larger than input
    with pytest.raises(ConfigError):
        LayerSpec("bad", 1, 1, 6, 6, 3, 3, stride=2)  # (6-3) % 2 != 0
    with pytest.raises(ConfigError):
        LayerSpec("bad", 1, 1, 4, 4, 3, 3, padding=-1)


def test_canonical_layer_dimensions():
    # output size = (in + 2*pad - filter) / stride + 1, derived by hand
    expected = {
        "C1": (28, 28, 23520),
        "C2": (10, 10, 48000),
        "C3": (1, 1, 9600),
        "F1": (1, 1, 10080),
        "F2": (1, 1, 840),
    }
    for layer in lenet5_layers(1):
        oh, ow, n_ops = expected[layer.name]
        assert (layer.out_h, layer.out_w) == (oh, ow), layer.name
        assert layer.op_count() == n_ops, layer.name

    conv = {l.name: l for l in alexnet_conv_layers(1)}
    assert (conv["conv1"].out_h, conv["conv1"].out_w) == (55, 55)
    assert (conv["conv2"].out_h, conv["conv2"].out_w) == (27, 27)
    assert (conv["conv3"].out_h, conv["conv3"].out_w) == (13, 13)
    assert (conv["conv4"].out_h, conv["conv4"].out_w) == (13, 13)
    # op_count counts one vector MAC per (output element, in_channel, filter row)
    assert conv["conv1"].op_count() == 55 * 55 * 96 * 3 * 11


def test_shrink_keeps_specs_valid():
    small = {l.name: l for l in lenet5_layers(2)}
    assert (small["C1"].in_height, small["C1"].out_h) == (16, 12)
    assert (small["C2"].in_height, small["C2"].out_h) == (7, 3)
    assert small["C3"].in_height == 5  # cannot go below the filter
    assert small["F1"].in_height == 1
    # channels are never scaled
    assert small["C3"].in_channels == 16 and small["C3"].out_channels == 120

    a = {l.name: l for l in alexnet_conv_layers(8)}
    # ceil(227/8)=29, bumped to 31 so the window sweep divides stride 4
    assert a["conv1"].in_height == 31 and a["conv1"].out_h == 6
    assert shrink_layer(small["C1"], 1) is small["C1"]
    with pytest.raises(ConfigError):
        shrink_layer(small["C1"], 0)


def test_backward_specs_shapes():
    c1 = lenet5_layers(1)[0]
    bw_in, bw_w = backward_specs(c1)
    # gradient pass recovers the forward input extent
    assert bw_in.pass_kind == Pass.BACKWARD_INPUT
    assert bw_in.in_channels == c1.out_channels
    assert bw_in.out_channels == c1.in_channels
    assert (bw_in.out_h, bw_in.out_w) == (c1.in_height, c1.in_width)
    # weight-gradient pass reuses the forward loop structure
    assert bw_w.pass_kind == Pass.BACKWARD_WEIGHT
    assert bw_w.op_count() == c1.op_count()

    with pytest.raises(ConfigError):
        backward_specs(LayerSpec("rect", 1, 1, 8, 8, 3, 2))
    with pytest.raises(ConfigError):
        backward_specs(bw_in)


# -------------------------------------------------------------------- layouts

def test_packed_layout_strides():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    geom = make_layouts(layer, row_pitch=0)
    assert geom.input.row_stride == 8 * 4
    assert geom.input.channel_stride == 8 * 32
    assert geom.weight.row_stride == 3 * 4
    assert geom.weight.channel_stride == 3 * 12
    assert geom.weight_filter_stride == 2 * 36
    assert geom.output.row_stride == 6 * 4
    assert geom.output.channel_stride == 6 * 6 * 4


def test_pitched_rows_land_on_pitch_multiples():
    layer = LayerSpec("toy", 1, 1, 8, 8, 3, 3)
    geom = make_layouts(layer, row_pitch=4096)
    # consecutive input rows a fixed 0x1000 apart
    assert geom.input_vec_addr(0, 0, 0) == 0x00000
    assert geom.input_vec_addr(0, 1, 0) == 0x01000
    assert geom.input_vec_addr(0, 2, 0) == 0x02000
    # a wide row still rounds up to the next pitch multiple
    wide = LayerSpec("wide", 1, 1, 4, 2048, 3, 3)
    gw = make_layouts(wide, row_pitch=4096)
    assert gw.input.row_stride == 8192


def test_geometry_addresses_frozen():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    geom = make_layouts(layer, 0)
    assert geom.input_vec_addr(1, 2, 3) == 256 + 64 + 12
    assert geom.weight_vec_addr(2, 1, 2) == WEIGHT_BASE + 144 + 36 + 24
    assert geom.output_addr(1, 2, 3) == OUTPUT_BASE + 144 + 48 + 12
    assert geom.input_extent() == 2 * 256
    assert geom.weight_extent() == 3 * 72
    assert geom.output_extent() == 3 * 144


def test_region_overlap_rejected():
    huge = LayerSpec("huge", 1, 1, 300000, 8, 3, 3)
    with pytest.raises(ConfigError):
        make_layouts(huge, row_pitch=4096)
    with pytest.raises(ConfigError):
        make_layouts(LayerSpec("t", 1, 1, 4, 4, 3, 3), row_pitch=-1)


# ---------------------------------------------------------------- enumeration

def independent_ops(layer, input_base=INPUT_BASE, weight_base=WEIGHT_BASE,
                    output_base=OUTPUT_BASE):
    """Reference enumeration with addresses spelled out longhand."""
    w = 4
    row = layer.padded_w * w
    ch = layer.padded_h * row
    w_row = layer.filter_w * w
    w_ch = layer.filter_h * w_row
    w_filt = layer.in_channels * w_ch
    o_row = layer.out_w * w
    o_ch = layer.out_h * o_row
    out = []
    for oc in range(layer.out_channels):
        for oy in range(layer.out_h):
            for ox in range(layer.out_w):
                for ic in range(layer.in_channels):
                    for fr in range(layer.filter_h):
                        prow = oy * layer.stride + fr
                        pcol = ox * layer.stride
                        out.append((
                            input_base + ic * ch + prow * row + pcol * w,
                            weight_base + oc * w_filt + ic * w_ch + fr * w_row,
                            output_base + oc * o_ch + oy * o_row + ox * w,
                        ))
    return out


@pytest.mark.parametrize("layer", [
    LayerSpec("plain", 2, 3, 8, 8, 3, 3),
    LayerSpec("padded", 2, 2, 6, 6, 3, 3, padding=1),
    LayerSpec("strided", 1, 2, 9, 9, 3, 3, stride=2),
    LayerSpec("fc", 5, 4, 1, 1, 1, 1),
])
def test_enumeration_matches_independent_loop(layer):
    geom = make_layouts(layer, 0)
    ops = enumerate_ops(geom)
    want = independent_ops(layer)
    assert len(ops) == layer.op_count()
    assert list(zip(ops.inp, ops.wgt, ops.out)) == want


def test_ops_grouped_by_output_element():
    layer = LayerSpec("toy", 2, 2, 6, 6, 3, 3)
    geom = make_layouts(layer, 0)
    seen = []
    for addr in enumerate_ops(geom).out:
        if not seen or seen[-1] != addr:
            seen.append(addr)
    # each output address appears as exactly one consecutive run
    assert len(seen) == len(set(seen)) == layer.out_h * layer.out_w * layer.out_channels


# --------------------------------------------------------------- warp mapping

def test_single_warp_mapping():
    layer = LayerSpec("t44", 1, 1, 4, 4, 3, 3)  # 4 outputs x 3 ops
    geom = make_layouts(layer, 0)
    ops = enumerate_ops(geom)
    assert map_to_warps(ops, 32, 4) == [(0, 0, 12)]
    # one lane per output element: four consecutive runs of three ops
    outs = list(ops.out[0:12])
    lanes = list(dict.fromkeys(outs))
    assert len(lanes) == 4
    assert outs == [addr for addr in lanes for _ in range(3)]


def test_round_robin_warp_distribution():
    layer = LayerSpec("t1010", 1, 1, 10, 10, 3, 3)  # 64 output elements
    geom = make_layouts(layer, 0)
    ops = enumerate_ops(geom)
    warps = map_to_warps(ops, 32, 2)
    assert [sm for sm, _, _ in warps] == [0, 1]
    assert [len(set(ops.out[start:end])) for _, start, end in warps] == [32, 32]
    assert [end - start for _, start, end in warps] == [96, 96]

    # more warps than SMs wraps around
    many = map_to_warps(ops, 8, 3)
    assert [sm for sm, _, _ in many] == [w % 3 for w in range(len(many))]
    assert map_to_warps(OpStream(), 32, 1) == []
    with pytest.raises(ConfigError):
        map_to_warps(OpStream(), 0, 1)


@pytest.mark.parametrize("warp_size,n_sms", [(32, 1), (8, 3), (4, 7)])
def test_warp_mapping_partitions_op_stream(warp_size, n_sms):
    layer = LayerSpec("toy", 2, 2, 6, 6, 3, 3, padding=1)
    geom = make_layouts(layer, 0)
    ops = enumerate_ops(geom)
    warps = map_to_warps(ops, warp_size, n_sms)
    starts = [start for _, start, _ in warps]
    ends = [end for _, _, end in warps]
    # the ranges tile the stream in order: no op lost, none duplicated
    assert starts == [0] + ends[:-1] and ends[-1] == len(ops)
    # no output element is split between two warps
    assert all(ops.out[end - 1] != ops.out[end] for end in ends[:-1])


def test_op_stream_memory_per_op():
    # three 8-byte address columns per op, where one object per op took
    # about 134 bytes; the warp ranges add a few bytes per thousand ops
    layer = alexnet_conv_layers(8)[0]
    geom = make_layouts(layer, 4096)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops = enumerate_ops(geom)
        warps = map_to_warps(ops, 32, 56)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(ops)
    assert n == layer.op_count() == 114_048 and len(warps) == 108
    assert (held - before) / n <= 32
    assert (peak - before) / n <= 32


# ---------------------------------------------------------------- reuse stats

def test_block_pair_masks_addresses():
    layer = LayerSpec("t44", 1, 1, 4, 4, 3, 3)
    geom = make_layouts(layer, 0)
    ops = enumerate_ops(geom)
    ib, wb = operand_blocks(ops.inp[0], ops.wgt[0], ~127)
    assert ib == ops.inp[0] & ~127
    assert wb == ops.wgt[0] & ~127
    with pytest.raises(ConfigError):
        reuse_histogram(ops, 100)   # blocks are a power of two in size


def test_block_masking_properties():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    geom = make_layouts(layer, 0)
    ops = enumerate_ops(geom)
    for i in range(len(ops)):
        ib, wb = operand_blocks(ops.inp[i], ops.wgt[i], ~127)
        # idempotent: a block address is its own block
        assert ib & ~127 == ib and wb & ~127 == wb
        # order-preserving: addresses never precede their block base
        assert ib <= ops.inp[i] < ib + 128
        assert wb <= ops.wgt[i] < wb + 128


def test_histogram_conserves_ops_and_pairs():
    layer = LayerSpec("toy", 2, 3, 8, 8, 3, 3)
    geom = make_layouts(layer, 0)
    ops = enumerate_ops(geom)
    counts, buckets = reuse_histogram(ops, 128)
    assert sum(counts.values()) == len(ops)
    assert counts == Counter(operand_blocks(ops.inp[i], ops.wgt[i], ~127)
                             for i in range(len(ops)))
    assert sum(buckets.values()) == len(counts)
    assert set(buckets) == {"1-100", "101-800", ">800"}
