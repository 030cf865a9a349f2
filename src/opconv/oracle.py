"""Arithmetic ground truth: deterministic int32 operand images, a naive
reference convolution, and bit-exact output comparison.

The simulator only reorders and relocates computations; it must never change
their values, and its timing never depends on them.  Every experiment can
therefore be checked against the plain loop-nest convolution computed here,
element for element.  The reference reads the operand words by index and
shares no code with MemoryImage.dot or MemoryImage.products, the products
the simulator computes with.
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

    def __init__(self, geom, seed):
        layer = geom.layer
        self.name = layer.name
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

    def check_reads(self, ops):
        """Raise ConfigError unless every op of the OpStream `ops` reads both
        its vectors inside the image.  `dot` checks nothing itself, since
        slices truncate silently, so a simulation calls this once up front."""
        for side, addrs, base, words in (
                ("input", ops.inp, self.input_base, self.input_words),
                ("weight", ops.wgt, self.weight_base, self.weight_words)):
            if not addrs:
                continue
            first = (min(addrs) - base) // WORD_SIZE
            last = (max(addrs) - base) // WORD_SIZE + self.length
            if first < 0 or last > len(words):
                raise ConfigError(
                    f"{self.name}: op stream reads {side} words {first}.."
                    f"{last - 1}, outside the image's {len(words)} {side} words")

    def dot(self, input_addr, weight_addr):
        """Dot product of the operand vectors at the two addresses, which
        `check_reads` has found inside the image."""
        i = (input_addr - self.input_base) // WORD_SIZE
        w = (weight_addr - self.weight_base) // WORD_SIZE
        n = self.length
        return sum(map(mul, self.input_words[i:i + n], self.weight_words[w:w + n]))

    def products(self, ops):
        """`dot` as a simulation of the OpStream `ops` needs it: a function
        of the addresses of one of its ops that returns what `dot` returns
        on the words as they are now, in about a third of the time.  A
        simulation reads the words and never writes them; `check_reads`
        must have passed.

        Each vector read becomes one integer with a field of `width` bits
        per word, a weight vector's words in reverse order.  In the product
        of an input and a weight integer, field n - 1 is then the dot
        product.  No field of the product reaches n * m * m in magnitude,
        where m is the largest magnitude of a word, and that is below
        `half`, half a field's range; so adding `half` to fields 0 to n - 1
        makes them non-negative, and field n - 1 reads back exactly.

        Packing a vector costs about what two products save, so for a
        stream that reads its weight vectors fewer than four times each on
        average (a layer whose every op has its own filter row) this is
        `dot` itself."""
        n = self.length
        if len(ops.wgt) < 4 * (len(self.weight_words) // n):
            return self.dot
        words = (self.input_words, self.weight_words)
        m = max(max(max(w), -min(w)) if w else 0 for w in words)
        width = (n * m * m).bit_length() + 1
        half = 1 << (width - 1)
        lift = sum(half << (k * width) for k in range(n))
        shift = (n - 1) * width
        mask = (1 << width) - 1

        def pack(words, base, addrs, reverse):
            # Horner's rule: the first word taken ends in the highest field
            packed = {}
            for addr in set(addrs):
                i = (addr - base) // WORD_SIZE
                vec = words[i:i + n]
                value = 0
                for v in (vec if reverse else reversed(vec)):
                    value = (value << width) + v
                packed[addr] = value
            return packed

        inputs = pack(self.input_words, self.input_base, ops.inp, False)
        weights = pack(self.weight_words, self.weight_base, ops.wgt, True)

        def dot(input_addr, weight_addr):
            return (((inputs[input_addr] * weights[weight_addr] + lift)
                     >> shift) & mask) - half

        return dot


def reference_convolution(geom, image):
    """Naive loop-nest convolution over the image; returns {output_addr: value}.

    It reads image.input_words and image.weight_words by word index, with
    its own stride arithmetic, and shares no code with MemoryImage.dot,
    MemoryImage.products or the op stream: a fault there shows as a mismatch instead of corrupting
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
