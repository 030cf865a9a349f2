"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from opconv.workload import LayerSpec


@st.composite
def layers(draw, channels=3, filters=3, strides=2, paddings=1):
    """A valid layer of 1-`channels` channels each way, filter sides
    1-`filters`, stride 1-`strides` and padding 0-`paddings`, with 1 to 5
    windows along each axis, or more where the padding would otherwise
    leave no unpadded row or column."""
    stride = draw(st.integers(1, strides))
    padding = draw(st.integers(0, paddings))
    fh, fw = draw(st.integers(1, filters)), draw(st.integers(1, filters))
    # padded extent = filter + stride * steps, with at least one unpadded row
    h = fh + stride * draw(st.integers(0, 4)) - 2 * padding
    w = fw + stride * draw(st.integers(0, 4)) - 2 * padding
    while h < 1:
        h += 2 * stride
    while w < 1:
        w += 2 * stride
    return LayerSpec("prop", draw(st.integers(1, channels)),
                     draw(st.integers(1, channels)), h, w, fh, fw, stride,
                     padding)
