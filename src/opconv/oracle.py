"""Arithmetic ground truth: deterministic int32 operand images, a naive
reference convolution, and bit-exact output comparison.

The simulator only reorders and relocates computations; it must never change
their values, and its timing never depends on them.  Every experiment can
therefore be checked against the plain loop-nest convolution computed here,
element for element.  The reference reads the operand words by index and
shares no code with MemoryImage.dot, the product the simulator computes with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .workload import WORD_SIZE, ConfigError

INT32_MIN, INT32_MAX = -2**31, 2**31 - 1


class MemoryImage:
    """Operand values addressed exactly like the simulated tensor regions.

    Values are drawn uniformly from [-8, 8]; the magnitudes keep every
    partial sum far from 32-bit limits for desk-scale layers.  Padding cells
    hold zero by construction.  Every operand vector is the layer's
    filter_w words long.
    """

    def __init__(self, geom, seed=0):
        layer = geom.layer
        self.length = layer.filter_w
        self.input_base = geom.input.base_address
        self.weight_base = geom.weight.base_address
        # "int32" stays in the seed string so that no operand value changes
        rng = random.Random((seed, layer.name, "int32").__repr__())
        self.input_words = [0] * (geom.input_extent() // WORD_SIZE)
        self.weight_words = [0] * (geom.weight_extent() // WORD_SIZE)
        p = layer.padding
        row_words = geom.input.row_stride // WORD_SIZE
        ch_words = geom.input.channel_stride // WORD_SIZE
        for ic in range(layer.in_channels):
            for r in range(layer.in_height):
                base = ic * ch_words + (r + p) * row_words + p
                for c in range(layer.in_width):
                    self.input_words[base + c] = rng.randint(-8, 8)
        for i in range(len(self.weight_words)):
            self.weight_words[i] = rng.randint(-8, 8)

    def input_vec(self, addr, length):
        idx = (addr - self.input_base) // WORD_SIZE
        if idx < 0 or idx + length > len(self.input_words):
            raise ConfigError(f"input read outside region: 0x{addr:x}")
        return self.input_words[idx:idx + length]

    def weight_vec(self, addr, length):
        idx = (addr - self.weight_base) // WORD_SIZE
        if idx < 0 or idx + length > len(self.weight_words):
            raise ConfigError(f"weight read outside region: 0x{addr:x}")
        return self.weight_words[idx:idx + length]

    def dot(self, input_addr, weight_addr):
        """Dot product of the operand vectors at the two addresses."""
        a = self.input_vec(input_addr, self.length)
        b = self.weight_vec(weight_addr, self.length)
        return sum(map(mul, a, b))


def reference_convolution(geom, image):
    """Naive loop-nest convolution over the image; returns {output_addr: value}.

    It reads image.input_words and image.weight_words by word index, with
    its own stride arithmetic, and shares no code with MemoryImage.dot or
    the op stream: a fault there shows as a mismatch instead of corrupting
    the expected outputs too.  Accumulation walks channels then filter rows
    then columns, matching the enumeration order of the op stream.  A read
    past the end of either word list, or an output outside the int32 range,
    raises ConfigError: the simulated machine computes in 32-bit integers,
    which Python's unbounded ints would otherwise not show.
    """
    layer = geom.layer
    s, fw = layer.stride, layer.filter_w
    inp, wgt = image.input_words, image.weight_words
    in_row = geom.input.row_stride // WORD_SIZE
    in_ch = geom.input.channel_stride // WORD_SIZE
    w_row = geom.weight.row_stride // WORD_SIZE
    w_ch = geom.weight.channel_stride // WORD_SIZE
    w_filter = geom.weight_filter_stride // WORD_SIZE
    out_row = geom.output.row_stride
    out_ch = geom.output.channel_stride
    out_base = geom.output.base_address
    # (input, weight) word offsets of the filter rows, in accumulation order
    rows = [(ic * in_ch + fr * in_row, ic * w_ch + fr * w_row)
            for ic in range(layer.in_channels) for fr in range(layer.filter_h)]

    # slices truncate silently, so the furthest word each side reads is
    # checked once here
    last_in = rows[-1][0] + (layer.out_h - 1) * s * in_row \
        + (layer.out_w - 1) * s + fw
    last_w = (layer.out_channels - 1) * w_filter + rows[-1][1] + fw
    for side, last, words in (("input", last_in, inp), ("weight", last_w, wgt)):
        if last > len(words):
            raise ConfigError(
                f"{layer.name}: reference reads {side} word {last - 1}, past "
                f"the image's {len(words)} {side} words")

    out = {}
    for oc in range(layer.out_channels):
        w0 = oc * w_filter
        filt = [(i_off, wgt[w0 + w_off:w0 + w_off + fw]) for i_off, w_off in rows]
        for oy in range(layer.out_h):
            row_base = oy * s * in_row
            addr = out_base + oc * out_ch + oy * out_row
            for ox in range(layer.out_w):
                base = row_base + ox * s
                acc = 0
                for i_off, w in filt:
                    i = base + i_off
                    acc += sum(map(mul, inp[i:i + fw], w))
                if not INT32_MIN <= acc <= INT32_MAX:
                    raise ConfigError(
                        f"{layer.name}: reference output at 0x{addr:x} is "
                        f"{acc}, outside int32")
                out[addr] = acc
                addr += WORD_SIZE
    return out


@dataclass
class CompareResult:
    ok: bool
    checked: int
    mismatches: list

    def message(self):
        if self.ok:
            return f"all {self.checked} outputs match"
        head = "; ".join(self.mismatches[:5])
        return f"{len(self.mismatches)} of {self.checked} outputs differ: {head}"


def compare(actual, expected):
    """Compare an output map against the reference, bit-exact.

    Missing or extra addresses are mismatches."""
    mismatches = []
    for addr in sorted(set(actual) | set(expected)):
        if addr not in actual:
            mismatches.append(f"0x{addr:x} missing from simulation")
            continue
        if addr not in expected:
            mismatches.append(f"0x{addr:x} not produced by reference")
            continue
        a, e = actual[addr], expected[addr]
        if a != e:
            mismatches.append(f"0x{addr:x}: got {a!r}, want {e!r}")
    return CompareResult(not mismatches, len(expected), mismatches)
