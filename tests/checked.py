"""A simulation that checks the scheme tables after every SM step."""

from opconv.smcore import INF, Simulation


class CheckedSimulation(Simulation):
    """Simulation whose SMs check, after each step, that every table is
    within capacity and that every owner an assign table names is a member
    of its cluster and holds the pair.  A broken check raises
    AssertionError out of the run."""

    def _sm(self, sm_id):
        inner = super()._sm(sm_id)
        try:
            nxt = next(inner)
            while True:
                nxt = inner.send((yield nxt))
                self._check()
        finally:
            # closing the inner coroutine charges its stall or assist tail
            inner.close()

    def _check(self):
        for sm_id, table in enumerate(self.tables):
            if table is not None and len(table) > table.capacity:
                raise AssertionError(
                    f"SM {sm_id} precompute table over capacity")
        for at in self.assign_tables:
            if len(at.entries) > at.capacity:
                raise AssertionError(
                    f"cluster {at.cluster_id} assign table over capacity")
            # only members register, and an owner's L1 eviction drops its
            # entries, so an SM that misses never finds itself or a
            # stranger as the owner
            for pair, owner in at.entries.items():
                if self.cluster_of[owner] != at.cluster_id or \
                        self.hier.absent_for_compute(owner, pair, INF):
                    raise AssertionError(
                        f"cluster {at.cluster_id} assign table names SM "
                        f"{owner} the owner of {pair}")
