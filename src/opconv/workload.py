"""Convolution workloads seen as streams of row-vector MAC operations.

A direct-convolution layer is executed as sliding-window dot products: every
operation multiplies one row of an input window (length filter_w) with the
matching filter row and accumulates into one output element.  This module
owns layer shapes, the flat address-space layout of the three tensor
regions, operation enumeration, the rule that cuts an op stream into warps
(which only the simulation applies, with its machine's warp size and SM
count), and the static block-pair reuse analysis.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import ne

WORD_SIZE = 4

# The three tensor regions live in disjoint address ranges.
INPUT_BASE = 0x0000_0000
WEIGHT_BASE = 0x4000_0000
OUTPUT_BASE = 0x8000_0000
REGION_SPAN = 0x4000_0000


class ConfigError(ValueError):
    """Inconsistent layer dimensions or configuration values."""


@dataclass(frozen=True)
class Knob:
    """One config key with its default and its bounds or allowed values."""

    key: str | None     # dotted config key; None for a field no key sets
    default: object
    lo: object = None
    hi: object = None
    choices: tuple = ()

    def check(self, value, what):
        if self.choices and value not in self.choices:
            raise ConfigError(f"{what} must be one of {', '.join(self.choices)}, "
                              f"got {value!r}")
        if self.lo is not None and not value >= self.lo:  # rejects NaN too
            raise ConfigError(f"{what} must be at least {self.lo}, got {value!r}")
        if self.hi is not None and not value <= self.hi:
            raise ConfigError(f"{what} must be at most {self.hi}, got {value!r}")


def knob(key, default, lo=None, hi=None, choices=()):
    """A dataclass field that is also the declaration of config key `key`."""
    return field(default=default,
                 metadata={"knob": Knob(key, default, lo, hi, tuple(choices))})


def knobs(cls):
    """(field name, Knob) for every knob field of dataclass `cls`."""
    return [(f.name, f.metadata["knob"]) for f in fields(cls)
            if "knob" in f.metadata]


def check_knobs(obj):
    """Raise ConfigError, naming field and key, for a knob out of bounds."""
    for name, k in knobs(type(obj)):
        k.check(getattr(obj, name), f"{name} ({k.key})" if k.key else name)


class Pass(str, Enum):
    FORWARD = "forward"
    BACKWARD_INPUT = "backward_input"
    BACKWARD_WEIGHT = "backward_weight"


@dataclass(frozen=True)
class LayerSpec:
    """Shape of one direct-convolution layer.

    in_height/in_width are the unpadded activation dimensions; padding is
    materialized in the input region as stored zeros so that every operand
    vector is a contiguous in-region read.
    """

    name: str
    in_channels: int
    out_channels: int
    in_height: int
    in_width: int
    filter_h: int
    filter_w: int
    stride: int = 1
    padding: int = 0
    pass_kind: Pass = Pass.FORWARD

    def __post_init__(self):
        if "/" in self.name:   # the name keys the run's records and files
            raise ConfigError(f"{self.name}: a layer name may not hold '/'")
        for f in ("in_channels", "out_channels", "in_height", "in_width",
                  "filter_h", "filter_w", "stride"):
            if getattr(self, f) < 1:
                raise ConfigError(f"{self.name}: {f} must be positive")
        if self.padding < 0:
            raise ConfigError(f"{self.name}: padding must be >= 0")
        if self.filter_h > self.padded_h or self.filter_w > self.padded_w:
            raise ConfigError(f"{self.name}: filter larger than padded input")
        if (self.padded_h - self.filter_h) % self.stride != 0 or \
           (self.padded_w - self.filter_w) % self.stride != 0:
            raise ConfigError(f"{self.name}: window sweep does not divide stride")

    @property
    def padded_h(self):
        return self.in_height + 2 * self.padding

    @property
    def padded_w(self):
        return self.in_width + 2 * self.padding

    @property
    def out_h(self):
        return (self.padded_h - self.filter_h) // self.stride + 1

    @property
    def out_w(self):
        return (self.padded_w - self.filter_w) // self.stride + 1

    def op_count(self):
        return self.out_h * self.out_w * self.out_channels * self.in_channels * self.filter_h


@dataclass(frozen=True)
class TensorLayout:
    base_address: int
    row_stride: int      # bytes between consecutive rows
    channel_stride: int  # bytes between consecutive channels


@dataclass(frozen=True)
class LayerGeometry:
    """LayerSpec plus the concrete layouts of its three regions."""

    layer: LayerSpec
    input: TensorLayout
    weight: TensorLayout
    output: TensorLayout

    # weight rows for all filters of one output channel occupy
    # in_channels * channel_stride bytes
    @property
    def weight_filter_stride(self):
        return self.layer.in_channels * self.weight.channel_stride

    def input_vec_addr(self, ic, prow, pcol):
        return (self.input.base_address + ic * self.input.channel_stride
                + prow * self.input.row_stride + pcol * WORD_SIZE)

    def weight_vec_addr(self, oc, ic, fr):
        return (self.weight.base_address + oc * self.weight_filter_stride
                + ic * self.weight.channel_stride + fr * self.weight.row_stride)

    def output_addr(self, oc, oy, ox):
        return (self.output.base_address + oc * self.output.channel_stride
                + oy * self.output.row_stride + ox * WORD_SIZE)

    def input_extent(self):
        return self.layer.in_channels * self.input.channel_stride

    def weight_extent(self):
        return self.layer.out_channels * self.weight_filter_stride

    def output_extent(self):
        return self.layer.out_channels * self.output.channel_stride


def make_layouts(layer, row_pitch):
    """Build the three region layouts for a layer.

    row_pitch = 0 packs input rows back to back (row_stride = padded width in
    bytes).  A positive row_pitch rounds the input row stride up to a multiple
    of that pitch, mirroring pitched device allocations where every row starts
    a fixed power-of-two distance apart.
    """
    packed_row = layer.padded_w * WORD_SIZE
    if row_pitch < 0:
        raise ConfigError("row_pitch must be >= 0")
    if row_pitch:
        row_stride = -(-packed_row // row_pitch) * row_pitch
    else:
        row_stride = packed_row
    inp = TensorLayout(INPUT_BASE, row_stride, layer.padded_h * row_stride)
    w_row = layer.filter_w * WORD_SIZE
    wgt = TensorLayout(WEIGHT_BASE, w_row, layer.filter_h * w_row)
    out = TensorLayout(OUTPUT_BASE, layer.out_w * WORD_SIZE,
                       layer.out_h * layer.out_w * WORD_SIZE)
    geom = LayerGeometry(layer, inp, wgt, out)
    if geom.input_extent() > WEIGHT_BASE - INPUT_BASE or \
       geom.weight_extent() > OUTPUT_BASE - WEIGHT_BASE or \
       geom.output_extent() > REGION_SPAN:
        raise ConfigError(f"{layer.name}: tensor regions would overlap")
    return geom


@dataclass(slots=True, eq=False)
class OpStream:
    """A layer's row-vector MAC ops as three parallel address columns.

    Op i multiplies the input row at inp[i] with the filter row at wgt[i]
    and adds the dot product to the output word at out[i]; both vectors are
    the layer's filter_w words long.  Each column is an array('q') of byte
    addresses, so an op costs 24 bytes and no Python object; everything
    downstream names an op by its index.  Nothing changes the columns once
    they are enumerated.
    """

    inp: array = field(default_factory=lambda: array("q"))
    wgt: array = field(default_factory=lambda: array("q"))
    out: array = field(default_factory=lambda: array("q"))

    def __len__(self):
        return len(self.out)


def enumerate_ops(geom):
    """Every op of the layer `geom` lays out, as an OpStream.

    Windows are walked row-major per output channel (sliding horizontally,
    then down); within one window the in_channels * filter_h row products are
    in channel-then-row order, so all ops of one output element are
    consecutive.

    The columns are built per layer, not per op.  The input column of one
    output channel is the same for every channel, so it is built once and
    repeated.  A channel's weight column is its filter rows repeated once
    per window.  The output column repeats each output address once per
    row product; it walks the output addresses as one range, because
    `make_layouts` packs the output region (rows out_w words apart,
    channels out_h rows apart), so the outputs in enumeration order are
    consecutive words.
    """
    layer = geom.layer
    s = layer.stride
    rows = [(ic, fr) for ic in range(layer.in_channels)
            for fr in range(layer.filter_h)]
    windows = layer.out_h * layer.out_w
    # an output element's input and filter rows, as offsets from its
    # window's first row and its filter's first row
    offsets = [geom.input_vec_addr(ic, fr, 0) - geom.input_vec_addr(0, 0, 0)
               for ic, fr in rows]
    w_offsets = [geom.weight_vec_addr(0, ic, fr) - geom.weight_vec_addr(0, 0, 0)
                 for ic, fr in rows]
    firsts = [geom.input_vec_addr(0, oy * s, ox * s)
              for oy in range(layer.out_h) for ox in range(layer.out_w)]
    channel_inp = array("q", [first + off for first in firsts for off in offsets])
    ops = OpStream(inp=channel_inp * layer.out_channels)
    for oc in range(layer.out_channels):
        filt = array("q", map(geom.weight_vec_addr(oc, 0, 0).__add__, w_offsets))
        ops.wgt.extend(filt * windows)
    out_base = geom.output.base_address
    outputs = range(out_base, out_base + geom.output_extent(), WORD_SIZE)
    ops.out.extend(chain.from_iterable(map(repeat, outputs, repeat(len(rows)))))
    return ops


def map_to_warps(ops, warp_size, n_sms):
    """Cut an OpStream into warps and deal warps round-robin over SMs.

    Returns one (sm_id, start, end) per warp, in warp-id order: warp w runs
    ops start..end-1 on SM w % n_sms, the ops of up to warp_size consecutive
    output elements (one per lane) in issue order.  Each run of ops sharing
    an output address is one output element, so a warp walks its windows
    left to right and then down, exactly the sliding-window traversal.
    """
    if warp_size < 1 or n_sms < 1:
        raise ConfigError("warp_size and n_sms must be positive")
    out = ops.out
    if not out:
        return []
    # the first op of every element: where the output address changes
    firsts = [0, *compress(count(1), map(ne, out, islice(out, 1, None)))]
    starts = firsts[::warp_size]
    ends = starts[1:] + [len(out)]
    return [(w % n_sms, start, end)
            for w, (start, end) in enumerate(zip(starts, ends))]


def _block_mask(block_size):
    if block_size < 1 or block_size & (block_size - 1):
        raise ConfigError("block_size must be a power of two")
    return ~(block_size - 1)


def operand_blocks(input_addr, weight_addr, block_mask):
    """The cache blocks an op reads, as a tuple of distinct blocks: the
    block holding the first word of its input vector, then the one holding
    the first word of its weight vector.

    This is the one place an operand address becomes a block; the issue
    path, the precompute and assign tables and bounced work all take their
    blocks from here.  `block_mask` is ~(block size - 1)."""
    return (input_addr & block_mask, weight_addr & block_mask)


def reuse_histogram(ops, block_size):
    """Count ops per computing block pair and bucket the counts.

    Returns (pair_counts, buckets) where buckets counts the pairs with
    "1-100", "101-800" and ">800" ops.
    """
    mask = _block_mask(block_size)
    counts = Counter(map(operand_blocks, ops.inp, ops.wgt, repeat(mask)))
    buckets = {"1-100": 0, "101-800": 0, ">800": 0}
    for n in counts.values():
        if n <= 100:
            buckets["1-100"] += 1
        elif n <= 800:
            buckets["101-800"] += 1
        else:
            buckets[">800"] += 1
    return counts, buckets


def shrink_layer(layer, factor):
    """Scale spatial dimensions down by ~factor, keeping the spec valid.

    Channels and filters are untouched; the shrunk height/width are bumped up
    until the filter fits and the window sweep divides the stride again.
    """
    if factor < 1:
        raise ConfigError("shrink factor must be >= 1")
    if factor == 1:
        return layer

    def fix(dim):
        d = -(-dim // factor)
        while (d + 2 * layer.padding < max(layer.filter_h, layer.filter_w)) or \
              (d + 2 * layer.padding - layer.filter_h) % layer.stride != 0 or \
              (d + 2 * layer.padding - layer.filter_w) % layer.stride != 0:
            d += 1
            if d > dim:
                raise ConfigError(f"{layer.name}: cannot shrink by {factor}")
        return d

    return LayerSpec(layer.name, layer.in_channels, layer.out_channels,
                     fix(layer.in_height), fix(layer.in_width),
                     layer.filter_h, layer.filter_w, layer.stride,
                     layer.padding, layer.pass_kind)


def lenet5_layers(shrink=1):
    """The five LeNet5 compute layers; fully connected stages are encoded as
    convolutions whose window spans the whole input."""
    layers = [
        LayerSpec("C1", 1, 6, 32, 32, 5, 5),
        LayerSpec("C2", 6, 16, 14, 14, 5, 5),
        LayerSpec("C3", 16, 120, 5, 5, 5, 5),
        LayerSpec("F1", 120, 84, 1, 1, 1, 1),
        LayerSpec("F2", 84, 10, 1, 1, 1, 1),
    ]
    return [shrink_layer(l, shrink) for l in layers]


def alexnet_conv_layers(shrink=1):
    layers = [
        LayerSpec("conv1", 3, 96, 227, 227, 11, 11, stride=4),
        LayerSpec("conv2", 96, 256, 27, 27, 5, 5, padding=2),
        LayerSpec("conv3", 256, 384, 13, 13, 3, 3, padding=1),
        LayerSpec("conv4", 384, 384, 13, 13, 3, 3, padding=1),
    ]
    return [shrink_layer(l, shrink) for l in layers]


def backward_specs(layer):
    """Derive the two backward passes of a forward layer as direct convolutions.

    The input-gradient pass convolves the (stride-dilated) output gradient,
    padded by filter-1, with the rotated filter; rotation does not change the
    traffic shape, so the derived spec only carries the dimensions.  The
    weight-gradient pass pairs input rows with output-gradient values window
    by window and has the same loop structure as the forward layer, so it is
    modeled with forward dimensions over fresh tensor regions.
    """
    if layer.pass_kind != Pass.FORWARD:
        raise ConfigError("backward specs derive from a forward layer")
    if layer.filter_h != layer.filter_w:
        raise ConfigError(f"{layer.name}: backward derivation needs a square filter")
    s = layer.stride
    gh = (layer.out_h - 1) * s + 1
    gw = (layer.out_w - 1) * s + 1
    bw_in = LayerSpec(layer.name + "_bwd_in", layer.out_channels, layer.in_channels,
                      gh, gw, layer.filter_h, layer.filter_w, 1,
                      layer.filter_h - 1, Pass.BACKWARD_INPUT)
    bw_w = LayerSpec(layer.name + "_bwd_w", layer.in_channels, layer.out_channels,
                     layer.in_height, layer.in_width, layer.filter_h,
                     layer.filter_w, s, layer.padding, Pass.BACKWARD_WEIGHT)
    return [bw_in, bw_w]
