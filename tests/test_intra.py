"""Prediction arithmetic and the per-SM precompute table state machine."""

from hypothesis import given
from hypothesis import strategies as st
from strategies import layers

from opconv.intra import ASSIGNED, SPECULATIVE, PrecomputeTable, predictor
from opconv.workload import LayerSpec, enumerate_ops, make_layouts, operand_blocks


def pitched_ops(layer, pitch=4096):
    """The layer's geometry and its ops as (input, weight) address pairs."""
    geom = make_layouts(layer, pitch)
    ops = enumerate_ops(geom)
    return geom, list(zip(ops.inp, ops.wgt))


def pair_predictor(geom):
    """The layer's predictor, returning the predicted pairs alone after
    checking that each comes with its operand blocks."""
    predict = predictor(geom, ~31)

    def pairs(input_addr, weight_addr):
        items = predict(input_addr, weight_addr)
        assert all(blocks == operand_blocks(*key, ~31) for key, blocks in items)
        return [key for key, _ in items]
    return pairs


# ------------------------------------------------------------------- predict

def test_predict_rows_meet_higher_weight_rows():
    geom, ops = pitched_ops(LayerSpec("t", 1, 1, 8, 8, 3, 3))
    predict = pair_predictor(geom)
    w = geom.weight.row_stride
    w0 = geom.weight_vec_addr(0, 0, 0)
    # first output window: ops 0..2 are filter rows 0..2 on input rows 0..2
    assert predict(*ops[0]) == []
    assert predict(*ops[1]) == [(0x1000, w0)]
    assert predict(*ops[2]) == [(0x2000, w0 + w), (0x2000, w0)]
    # the union is exactly the work of the next two windows that reuses
    # already-touched input rows
    union = set(predict(*ops[0])) | set(predict(*ops[1])) \
        | set(predict(*ops[2]))
    assert union == {(0x1000, w0), (0x2000, w0 + w), (0x2000, w0)}


def test_predicted_pairs_are_future_ops():
    layer = LayerSpec("t", 2, 2, 8, 8, 3, 3)
    geom, ops = pitched_ops(layer)
    predict = pair_predictor(geom)
    all_pairs = set(ops)
    seen = set()
    for op in ops:
        for pair in predict(*op):
            assert pair in all_pairs       # never invents work
            assert pair != op
        seen.add(op)
    # every predicted pair of the first window's ops is still in the future
    for op in ops[:3]:
        for pair in predict(*op):
            assert pair not in seen or pair in all_pairs


@given(layer=layers(), pitch=st.sampled_from([0, 64, 4096]))
def test_predicted_pairs_are_later_ops_of_any_layer(layer, pitch):
    # every pair names exactly one op, so a prediction must name a later one
    geom, ops = pitched_ops(layer, pitch)
    predict = pair_predictor(geom)
    index = {op: i for i, op in enumerate(ops)}
    assert len(index) == len(ops)
    for i, op in enumerate(ops):
        for pair in predict(*op):
            assert index[pair] > i


def test_predict_steps_by_stride():
    geom, ops = pitched_ops(LayerSpec("s2", 1, 1, 9, 9, 3, 3, stride=2))
    predict = pair_predictor(geom)
    w0 = geom.weight_vec_addr(0, 0, 0)
    first = ops[:3]
    # row 2 drops straight to weight row 0 (one output row = two filter rows)
    assert predict(*first[2]) == [(first[2][0], w0)]
    # row 1 would land between weight rows: nothing to predict
    assert predict(*first[1]) == []
    # bottom window predicts nothing past the last output row
    assert predict(*ops[-1]) == []


def test_predict_empty_for_single_output_row():
    geom, ops = pitched_ops(LayerSpec("one", 1, 1, 3, 3, 3, 3))
    predict = pair_predictor(geom)
    assert all(predict(*op) == [] for op in ops)


# ----------------------------------------------------------------- the table

def key_of(i):
    # distinct 128B operand blocks per i
    return (0x1000 + i * 128, 0x4000_0000 + i * 128)


def blocks_of(key):
    return operand_blocks(key[0], key[1], ~127)


class L1:
    """Residency answers for a lone table: the blocks in `resident` are
    installed and landed and every other block is absent; None means every
    block is resident.  `asked` records each question as (sm_id, blocks,
    now)."""

    def __init__(self, resident=None):
        self.resident = resident
        self.asked = []

    def absent_for_compute(self, sm_id, blocks, now):
        self.asked.append((sm_id, blocks, now))
        if self.resident is None:
            return 0
        return sum(1 << k for k, b in enumerate(blocks)
                   if b not in self.resident)


def insert(t, key, blocks=None):
    """Offer one predicted pair; returns accepted, duplicate or rejected."""
    duplicates = t.duplicates
    if t.insert_predictions([(key, blocks or blocks_of(key))], 0):
        return "accepted"
    return "duplicate" if t.duplicates > duplicates else "rejected"


def decode(t, key):
    """t.lookup(key) with the case it took: ("hit", result), since a hit
    never returns None, or ("pending", None) or ("absent", None), told
    apart by the pendings counter."""
    pendings = t.pendings
    result = t.lookup(key)
    if result is not None:
        return "hit", result
    return ("pending" if t.pendings > pendings else "absent"), None


def test_insert_lookup_consume_cycle():
    t = PrecomputeTable(8, L1(), 0)
    k = key_of(0)
    assert insert(t, k) == "accepted"
    assert insert(t, k) == "duplicate"
    # decoding the pair while still pending invalidates the prediction
    assert decode(t, k) == ("pending", None)
    assert decode(t, k) == ("absent", None)

    assert insert(t, k) == "accepted"
    entry = t.next_assist()
    assert entry.key == k and entry.kind == SPECULATIVE
    t.finish(entry, -2)
    assert entry.complete
    assert decode(t, k) == ("hit", -2)       # consumed
    assert decode(t, k) == ("absent", None)
    assert (t.lookups, t.pendings, t.inserts, t.duplicates) == (4, 1, 2, 1)


def test_insert_predictions_takes_an_ops_pairs_in_order():
    """One call queues every predicted pair of an op: duplicates are
    skipped, the rest are accepted in order, each with its own residency."""
    resident = set(blocks_of(key_of(0))) | set(blocks_of(key_of(2)))
    t = PrecomputeTable(8, L1(resident), 0)
    k0, k1, k2 = map(key_of, range(3))
    assert t.insert_predictions([(k0, blocks_of(k0))], 0) == 1
    assert t.insert_predictions(
        [(k0, blocks_of(k0)), (k1, blocks_of(k1)), (k2, blocks_of(k2))], 0) == 2
    assert (t.inserts, t.duplicates, t.accesses) == (3, 1, 4)
    assert [t.speculative[k].absent for k in (k0, k1, k2)] == [0, 0b11, 0]
    assert t.insert_predictions((), 0) == 0
    assert t.next_assist().key == k0
    t.finish(t.next_assist(), 1)
    assert t.next_assist().key == k2                  # k1 not resident


def test_insert_asks_residency_only_for_the_entries_it_makes():
    """A duplicate or a rejected item makes no entry, so its blocks are not
    asked about; each entry made is asked about its own blocks, in order."""
    ka, kb, kc, k1, k2 = map(key_of, range(5))
    l1 = L1(set(blocks_of(k1)))
    t = PrecomputeTable(3, l1, 3)
    for k in (ka, kb, kc):
        assert t.stage_assigned(k, blocks_of(k), 0, 1)[0] == "staged"
    # a duplicate of assigned work, then an item that finds no room
    assert t.insert_predictions([(ka, blocks_of(ka)), (k1, blocks_of(k1))],
                                5) == 0
    assert l1.asked == []
    t.finish(t.next_assist(), 0)
    t.finish(t.next_assist(), 0)                   # kc alone is left
    items = [(kc, blocks_of(kc)), (k1, blocks_of(k1)), (k1, blocks_of(k1)),
             (k2, blocks_of(k2))]
    assert t.insert_predictions(items, 7) == 2
    assert l1.asked == [(3, blocks_of(k1), 7), (3, blocks_of(k2), 7)]
    assert [t.speculative[k].absent for k in (k1, k2)] == [0, 0b11]
    assert (t.inserts, t.duplicates) == (5, 3)


def test_finish_keeps_an_older_entry_that_became_eligible():
    k0, k1 = key_of(0), key_of(1)
    resident = set(blocks_of(k1))
    t = PrecomputeTable(8, L1(resident), 0)
    assert insert(t, k0) == "accepted"           # waits for its operands
    assert insert(t, k1) == "accepted"
    entry = t.next_assist()
    assert entry.key == k1
    for b in blocks_of(k0):                      # they arrive mid-assist
        resident.add(b)
        t.block_installed(b)
    t.finish(entry, 0)
    assert t.next_assist().key == k0


def test_capacity_evicts_oldest_speculative():
    t = PrecomputeTable(4, L1(), 0)
    for k in map(key_of, range(5)):
        assert insert(t, k) == "accepted"
    assert len(t) == 4
    assert t.evictions == 1
    assert decode(t, key_of(0)) == ("absent", None)   # FIFO victim
    assert decode(t, key_of(1))[0] == "pending"


def test_assigned_work_cannot_be_displaced():
    t = PrecomputeTable(2, L1(), 0)
    k0, k1, k2 = map(key_of, range(3))
    assert t.stage_assigned(k0, blocks_of(k0), 0, 1)[0] == "staged"
    assert t.stage_assigned(k1, blocks_of(k1), 0, 1)[0] == "staged"
    assert insert(t, k2) == "rejected"
    assert t.stage_assigned(k2, blocks_of(k2), 0, 1) == ("full", None)


def test_stage_assigned_memo_and_replacement():
    t = PrecomputeTable(8, L1(), 0)
    k = key_of(3)
    insert(t, k)
    t.finish(t.next_assist(), 41)
    status, result = t.stage_assigned(k, blocks_of(k), 0, src_sm=2)
    assert (status, result) == ("memo", 41)          # already computed here
    assert decode(t, k) == ("absent", None)

    insert(t, k)                                     # pending this time
    status, entry = t.stage_assigned(k, blocks_of(k), 5, src_sm=2)
    assert status == "staged" and entry.kind == ASSIGNED
    assert entry.op == 5 and entry.src_sm == 2 and entry.absent == 0
    assert decode(t, k) == ("absent", None)           # assigned never matched


def test_stage_assigned_refuses_a_key_it_stages():
    """A second op staged under a key the table already stages is refused
    as a full table refuses it, so the caller bounces it, and the first
    stays the table's one entry for the key."""
    t = PrecomputeTable(8, L1(), 0)
    k = key_of(2)
    status, first = t.stage_assigned(k, blocks_of(k), 3, src_sm=1)
    assert status == "staged"
    assert t.stage_assigned(k, blocks_of(k), 4, src_sm=2) == ("full", None)
    assert len(t) == 1 and t.inserts == 1
    assert t.next_assist() is first
    t.finish(first, 0)
    assert len(t) == 0 and not t.by_block and t.next_assist() is None


def test_next_assist_prefers_assigned_then_oldest():
    resident = set()
    t = PrecomputeTable(8, L1(resident), 0)
    k0, k1, ka = key_of(0), key_of(1), key_of(7)
    resident.update(key_of(1))                        # only k1 runnable
    insert(t, k0)
    insert(t, k1)
    t.stage_assigned(ka, blocks_of(ka), 0, 4)
    picked = t.next_assist()
    assert picked.kind == ASSIGNED and picked.key == ka
    t.finish(picked, 7)

    assert t.next_assist().key == k1                  # k0 not resident
    resident.update(k0)
    t.block_installed(k0[0])
    t.block_installed(k0[1])
    assert t.next_assist().key == k0                  # now oldest eligible


def test_block_eviction_disables_and_bounces():
    resident = set(key_of(0)) | set(key_of(1))
    t = PrecomputeTable(8, L1(resident), 0)
    insert(t, key_of(0))

    resident.discard(key_of(0)[0])
    assert not t.block_evicted(key_of(0)[0])          # speculative: just parked
    assert t.next_assist() is None
    resident.add(key_of(0)[0])
    t.block_installed(key_of(0)[0])
    assert t.next_assist().key == key_of(0)           # eligible again

    t.stage_assigned(key_of(1), blocks_of(key_of(1)), 0, 5)
    resident.discard(key_of(1)[1])
    bounced = t.block_evicted(key_of(1)[1])
    assert [e.key for e in bounced] == [key_of(1)]
    assert bounced[0].absent == -1                    # removed marker
    assert len(t) == 1


def test_entry_waits_for_every_block_of_its_tuple():
    """Residency is kept per position of the entry's block tuple, however
    long: an entry is eligible once every block is resident, and leaves the
    eligible set when any one of them is evicted."""
    resident = set()
    t = PrecomputeTable(8, L1(resident), 0)
    k = key_of(0)
    blocks = (k[0], k[0] + 128, k[1])
    resident.add(blocks[1])
    assert insert(t, k, blocks) == "accepted"
    for b in (blocks[2], blocks[0]):
        assert t.next_assist() is None
        resident.add(b)
        t.block_installed(b)
    assert t.next_assist().key == k
    for b in blocks:
        resident.discard(b)
        assert not t.block_evicted(b)
        assert t.next_assist() is None
        resident.add(b)
        t.block_installed(b)
        assert t.next_assist().key == k


def test_stale_heap_entries_are_skipped():
    t = PrecomputeTable(8, L1(), 0)
    insert(t, key_of(0))
    insert(t, key_of(1))
    assert decode(t, key_of(0)) == ("pending", None)   # kills the older entry
    assert t.next_assist().key == key_of(1)


def test_purge_drops_oldest_fraction():
    t = PrecomputeTable(200, L1(), 0)
    for k in map(key_of, range(100)):
        insert(t, k)
    assert t.purge(fraction=0.25) == 25
    assert t.purged == 25 and len(t) == 75
    assert decode(t, key_of(24)) == ("absent", None)
    assert decode(t, key_of(25))[0] == "pending"

