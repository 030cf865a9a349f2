"""Property tests: random tiny layers on random tiny machines.

Every scheme must reproduce the reference convolution bit for bit, retire
each op exactly once, account for every forwarded op, and give the same
counters when run twice on the same op stream, which it must leave
unchanged.  The example count and the derandomized search come
from the hypothesis profile in conftest.py.
"""

from checked import CheckedSimulation
from hypothesis import given
from hypothesis import strategies as st
from strategies import layers

from opconv.cachehier import CacheGeometry
from opconv.oracle import MemoryImage, compare, reference_convolution
from opconv.smcore import SCHEMES, SimParams, run_simulation
from opconv.workload import enumerate_ops, make_layouts

SMALL_L1 = CacheGeometry(1024, 4, 2)


def _cluster_counts(sm_count):
    """Cluster counts that leave no cluster empty and hold at most 8 SMs."""
    return [c for c in range(1, sm_count + 1)
            if -(-sm_count // -(-sm_count // c)) == c and -(-sm_count // c) <= 8]


@st.composite
def machines(draw):
    sm_count = draw(st.integers(1, 16))
    return dict(sm_count=sm_count,
                clusters=draw(st.sampled_from(_cluster_counts(sm_count))),
                warp_size=draw(st.sampled_from([8, 32])),
                pc_entries=draw(st.integers(1, 64)),
                at_entries=draw(st.integers(1, 64)),
                lat_l1=draw(st.integers(0, 2)),
                assist_latency=draw(st.integers(0, 9)),
                forward_latency=draw(st.integers(0, 9)),
                purge_period=draw(st.integers(1, 60)),
                l1=draw(st.sampled_from([SMALL_L1, SimParams().l1])))


@given(layer=layers(), row_pitch=st.sampled_from([0, 4096]), hw=machines(),
       seed=st.integers(0, 3))
def test_every_scheme_is_exact_and_conserving(layer, row_pitch, hw, seed):
    geom = make_layouts(layer, row_pitch)
    image = MemoryImage(geom, seed)
    expected = reference_convolution(geom, image)
    for scheme in SCHEMES:
        params = SimParams(scheme=scheme, **hw)
        ops = enumerate_ops(geom)
        columns = (ops.inp.tobytes(), ops.wgt.tobytes(), ops.out.tobytes())
        stats, out = CheckedSimulation(params, ops, image, geom).run()
        assert compare(out.values, expected).ok, scheme
        # out.adds is also the run loop's progress count
        assert out.adds == stats.retired() == stats.total_ops == layer.op_count()
        assert stats.forwards == stats.assigned_done + stats.bounces
        # the simulation reads the op stream and must not change it
        again, _ = run_simulation(params, ops, image, geom)
        assert again.to_dict() == stats.to_dict()
        assert (ops.inp.tobytes(), ops.wgt.tobytes(), ops.out.tobytes()) == columns
