"""PrecomputeTable against a plain list-based model.

The model keeps every entry in one list in insertion order and recomputes
everything it is asked by scanning that list; an entry's residency bits are
set from the L1 at insertion and then follow the L1's install and evict
events, as the table's rules say.  The fake L1 here keeps an explicit set
of installed blocks and the subset that has landed, and sends the table an
event for each install and eviction, as `MemoryHierarchy` does: it installs
a block only while it does not hold it and evicts one only while it does.
Random traces of inserts, staged work, lookups, assists and their finishes,
installs, landings, evictions and purges over a few blocks must give the
same answers and the same seven counters after every step.
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from opconv.intra import ASSIGNED, SPECULATIVE, PrecomputeTable
from opconv.workload import operand_blocks

MASK = ~127
INPUTS = [0x1000 + i * 128 for i in range(3)]
WEIGHTS = [0x4000_0000 + i * 128 for i in range(3)]
KEYS = [(i, w) for i in INPUTS for w in WEIGHTS]
BLOCKS = INPUTS + WEIGHTS
CAPACITY = 4
COUNTERS = ("lookups", "pendings", "inserts", "duplicates", "evictions",
            "purged", "accesses")


class FakeL1:
    """Installed blocks and the subset of them that has landed."""

    def __init__(self):
        self.installed = set()
        self.landed = set()

    def absent_for_compute(self, _sm_id, blocks, _now):
        return sum(1 << k for k, b in enumerate(blocks)
                   if b not in self.landed)


class Model:
    """The table's rules over a list of entry dicts, oldest first."""

    def __init__(self, l1):
        self.l1 = l1
        self.entries = []
        for name in COUNTERS:
            setattr(self, name, 0)

    def find(self, key):
        return next((e for e in self.entries if e["key"] == key), None)

    def evict_oldest_spec(self):
        for e in self.entries:
            if e["kind"] == SPECULATIVE:
                self.entries.remove(e)
                self.evictions += 1
                return True
        return False

    def insert(self, key, blocks):
        self.accesses += 1
        if self.find(key) is not None:
            self.duplicates += 1
            return 0
        if len(self.entries) >= CAPACITY and not self.evict_oldest_spec():
            return 0
        self.entries.append(dict(
            key=key, blocks=blocks, kind=SPECULATIVE, complete=False,
            result=None, absent=self.l1.absent_for_compute(0, blocks, 0)))
        self.inserts += 1
        return 1

    def stage(self, key, blocks):
        self.accesses += 1
        e = self.find(key)
        if e is not None and e["kind"] == SPECULATIVE:
            self.entries.remove(e)
            if e["complete"]:
                return "memo", e["result"]
        if e is not None and e["kind"] == ASSIGNED:
            return "full", None   # a key is staged once
        if len(self.entries) >= CAPACITY and not self.evict_oldest_spec():
            return "full", None
        self.entries.append(dict(key=key, blocks=blocks, kind=ASSIGNED,
                                 complete=False, result=None, absent=0))
        self.inserts += 1
        return "staged", key

    def lookup(self, key):
        self.lookups += 1
        self.accesses += 1
        e = self.find(key)
        if e is None or e["kind"] != SPECULATIVE:
            return None
        self.entries.remove(e)
        if e["complete"]:
            return e["result"]
        self.pendings += 1
        return None

    def next_assist(self):
        for e in self.entries:
            if e["kind"] == ASSIGNED:
                return e
        for e in self.entries:
            if not e["complete"] and not e["absent"]:
                return e
        return None

    def finish(self, e, result):
        self.accesses += 1
        if e["kind"] == ASSIGNED:
            self.entries.remove(e)
        else:
            e["complete"] = True
            e["result"] = result

    def installed(self, block):
        for e in self.entries:
            if block in e["blocks"]:
                e["absent"] &= ~(1 << e["blocks"].index(block))

    def evicted(self, block):
        bounced = []
        for e in self.entries:
            if block in e["blocks"]:
                e["absent"] |= 1 << e["blocks"].index(block)
                if e["kind"] == ASSIGNED:
                    bounced.append(e)
        for e in bounced:
            self.entries.remove(e)
        return [e["key"] for e in bounced]

    def purge(self, fraction):
        spec = [e for e in self.entries if e["kind"] == SPECULATIVE]
        n = int(len(spec) * fraction)
        for e in spec[:n]:
            self.entries.remove(e)
        self.purged += n
        self.accesses += n
        return n


keys = st.sampled_from(KEYS)
blocks = st.sampled_from(BLOCKS)
# weighted so that most traces fill the table, run assists and hit results
steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.lists(keys, min_size=1, max_size=3)),
    st.tuples(st.just("insert"), st.lists(keys, max_size=3)),
    st.tuples(st.just("stage"), keys),
    st.tuples(st.just("lookup"), keys),
    st.tuples(st.just("lookup"), keys),
    st.tuples(st.just("assist"), st.none()),
    st.tuples(st.just("assist"), st.none()),
    st.tuples(st.just("assist"), st.none()),
    st.tuples(st.just("assist"), st.none()),
    st.tuples(st.sampled_from(["install", "land", "evict"]), blocks),
    st.tuples(st.just("install_landed"), blocks),
    st.tuples(st.just("install_landed"), blocks),
    st.tuples(st.just("evict"), blocks),
    st.tuples(st.just("purge"), st.sampled_from([0.25, 0.5, 1.0]))),
    min_size=40, max_size=120)


def blocks_of(key):
    return operand_blocks(key[0], key[1], MASK)


# no shrinking: a failing trace is reported as drawn, since shrinking these
# traces can run for many minutes and look like a hang
@settings(phases=[p for p in Phase if p is not Phase.shrink])
@given(st.sets(blocks, min_size=3), steps)
def test_precompute_table_matches_list_model(resident, trace):
    l1 = FakeL1()
    l1.installed |= resident    # landed before the table was made
    l1.landed |= resident
    table = PrecomputeTable(CAPACITY, l1, 0)
    model = Model(l1)
    in_flight = None   # (table entry, model entry) of the running assist
    for op, arg in trace:
        if op == "insert":
            items = [(k, blocks_of(k)) for k in arg]
            made = sum(model.insert(k, b) for k, b in items)
            assert table.insert_predictions(items, 0) == made
        elif op == "stage":
            b = blocks_of(arg)
            if l1.absent_for_compute(0, b, 0):
                continue   # the engine stages only fully landed work
            status, payload = table.stage_assigned(arg, b, 0, 1)
            want = model.stage(arg, b)
            if status == "staged":
                payload = payload.key
            assert (status, payload) == want
        elif op == "lookup":
            assert table.lookup(arg) == model.lookup(arg)
        elif op == "assist":
            if in_flight is None:
                # the engine asks only while no assist runs
                got, want = table.next_assist(), model.next_assist()
                assert (got and (got.key, got.kind)) == \
                    (want and (want["key"], want["kind"]))
                if got is not None:
                    in_flight = got, want
            else:
                got, want = in_flight
                in_flight = None
                # an entry removed mid-flight is not finished
                alive = any(e is want for e in model.entries)
                assert (got.absent != -1) == alive
                if got.absent != -1:
                    result = got.key[0] - got.key[1]
                    table.finish(got, result)
                    model.finish(want, result)
        elif op in ("install", "install_landed"):
            if arg not in l1.installed:
                l1.installed.add(arg)
                table.block_installed(arg)
                model.installed(arg)
            if op == "install_landed" and arg in l1.installed:
                l1.landed.add(arg)   # a fill that lands before the next step
        elif op == "land":
            if arg in l1.installed:
                l1.landed.add(arg)
        elif op == "evict":
            if arg in l1.installed:
                l1.installed.discard(arg)
                l1.landed.discard(arg)
                bounced = table.block_evicted(arg)
                assert [e.key for e in bounced] == model.evicted(arg)
        else:
            assert table.purge(arg) == model.purge(arg)
        assert [getattr(table, c) for c in COUNTERS] == \
            [getattr(model, c) for c in COUNTERS]
        # the block index holds exactly the work still waiting: assigned
        # entries and pending speculation
        assert {e.key for bucket in table.by_block.values()
                for e in bucket.values()} == \
            {e["key"] for e in model.entries if not e["complete"]}
        for kind, keys in ((SPECULATIVE, table.speculative),
                           (ASSIGNED, table.assigned)):
            assert list(keys) == [e["key"] for e in model.entries
                                  if e["kind"] == kind]
