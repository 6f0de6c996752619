"""HashRing: stability under churn, vnode balance, process determinism."""
import bisect
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.fleet import HashRing, remap_fraction

KEYS = list(range(10_000))


def ring_of(nodes, **kwargs):
    """A ring holding ``nodes``, added in the order given."""
    ring = HashRing(**kwargs)
    for node in nodes:
        ring.add(node)
    return ring


class TestMembership:
    def test_empty_ring_assigns_nothing(self):
        ring = HashRing()
        assert len(ring) == 0
        assert ring.assign(42) is None
        assert ring.ownership() == {}

    def test_add_remove_roundtrip(self):
        ring = ring_of((0, 1, 2))
        assert ring.nodes == [0, 1, 2]
        assert 1 in ring
        ring.remove(1)
        assert 1 not in ring
        assert ring.nodes == [0, 2]
        ring.add(1)
        assert ring.nodes == [0, 1, 2]

    def test_add_is_idempotent(self):
        ring = ring_of((0,), vnodes=8)
        before = ring.assignment(KEYS[:100])
        ring.add(0)
        assert ring.assignment(KEYS[:100]) == before

    def test_rejects_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestStableAssignmentUnderChurn:
    def test_adding_one_replica_remaps_at_most_bound(self):
        # The consistent-hashing contract: going N -> N+1 moves only the
        # slice the new node takes over, ~1/(N+1) in expectation and
        # always <= 1.5/(N+1) with enough vnodes.
        for n in (2, 4, 8):
            ring = ring_of(range(n), vnodes=64)
            before = ring.assignment(KEYS)
            ring.add(n)
            after = ring.assignment(KEYS)
            moved = remap_fraction(before, after)
            assert moved <= 1.5 / (n + 1), (
                f"{n}->{n + 1} replicas moved {moved:.3f} of keys")
            # Every moved key landed on the new node, nowhere else.
            for k in KEYS:
                if before[k] != after[k]:
                    assert after[k] == n

    def test_removing_one_replica_remaps_only_its_keys(self):
        ring = ring_of(range(5), vnodes=64)
        before = ring.assignment(KEYS)
        ring.remove(2)
        after = ring.assignment(KEYS)
        for k in KEYS:
            if before[k] == 2:
                assert after[k] != 2
            else:
                # Survivors keep every key they already owned.
                assert after[k] == before[k]
        assert remap_fraction(before, after) <= 1.5 / 5

    def test_exclusion_is_next_owner_fallback(self):
        ring = ring_of(range(4), vnodes=32)
        for key in KEYS[:500]:
            owner = ring.assign(key)
            fallback = ring.assign(key, exclude=(owner,))
            assert fallback is not None and fallback != owner
            # Excluding everything yields no owner.
            assert ring.assign(key, exclude=tuple(range(4))) is None
            # The fallback matches what removal would produce.
        ring2 = ring_of(range(4), vnodes=32)
        key = 123
        owner = ring2.assign(key)
        fallback = ring2.assign(key, exclude=(owner,))
        ring2.remove(owner)
        assert ring2.assign(key) == fallback


class TestVirtualNodeBalance:
    def test_ownership_sums_to_one(self):
        ring = ring_of(range(6), vnodes=64)
        shares = ring.ownership()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_more_vnodes_tighten_balance(self):
        def spread(vnodes):
            ring = ring_of(range(8), vnodes=vnodes)
            shares = ring.ownership().values()
            return max(shares) / (1.0 / 8)

        assert spread(256) < spread(4)

    def test_balanced_within_factor_two_at_64_vnodes(self):
        ring = ring_of(range(8), vnodes=64)
        for node, share in ring.ownership().items():
            assert 0.5 / 8 < share < 2.0 / 8, (
                f"node {node} owns {share:.3f} of the space")

    def test_key_fraction_is_roughly_uniform(self):
        ring = ring_of((0,))
        fracs = [ring.key_fraction(k) for k in KEYS]
        assert all(0.0 <= f < 1.0 for f in fracs)
        assert 0.45 < sum(fracs) / len(fracs) < 0.55


class TestDeterminism:
    def test_same_inputs_same_ring(self):
        a = ring_of(range(5), vnodes=32, salt="cell0")
        b = ring_of(range(5), vnodes=32, salt="cell0")
        assert a.assignment(KEYS) == b.assignment(KEYS)

    def test_salt_shards_independently(self):
        a = ring_of(range(5), vnodes=32, salt="east")
        b = ring_of(range(5), vnodes=32, salt="west")
        same = sum(1 for k in KEYS if a.assign(k) == b.assign(k))
        # ~1/5 agreement by chance; identical rings would be 100%.
        assert same / len(KEYS) < 0.5

    def test_insertion_order_is_irrelevant(self):
        a = ring_of((0, 1, 2, 3), vnodes=32)
        b = ring_of((3, 1, 0, 2), vnodes=32)
        assert a.assignment(KEYS) == b.assignment(KEYS)

    def test_assignment_stable_across_processes(self):
        # The point of SHA-1 over builtin hash(): a fresh interpreter
        # (fresh PYTHONHASHSEED) must shard identically, or the server,
        # its tests, and a replayed run disagree about key ownership.
        script = (
            "from repro.serve.fleet import HashRing\n"
            "ring = HashRing(vnodes=16, salt='cell0')\n"
            "for node in range(4):\n"
            "    ring.add(node)\n"
            "print([ring.assign(k) for k in range(200)])\n")
        outs = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True, timeout=60).stdout
            for _ in range(2)}
        assert len(outs) == 1
        here = ring_of(range(4), vnodes=16, salt="cell0")
        assert outs.pop().strip() == str(
            [here.assign(k) for k in range(200)])


def walk(ring, key, exclude=()):
    """The reference lookup: bisect, then walk clockwise past ``exclude``."""
    if not ring._points:
        return None
    if exclude and not (ring._nodes - set(exclude)):
        return None
    h = ring.key_hash(key)
    n = len(ring._points)
    idx = bisect.bisect_left(ring._hashes, h)
    for step in range(n):
        node = ring._points[(idx + step) % n][1]
        if node not in exclude:
            return node
    return None


NODE = st.integers(0, 5)
OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), NODE),
    st.tuples(st.just("remove"), NODE),
    st.tuples(st.just("assign"), st.integers(0, 40),
              st.lists(NODE, max_size=3).map(tuple))), max_size=80)


class TestAssignWalk:
    @given(st.lists(NODE, max_size=4), OPS)
    @settings(max_examples=200, deadline=None)
    def test_assign_matches_reference_walk_under_churn(self, nodes, ops):
        ring = ring_of(nodes, vnodes=4, salt="walk")
        for op in ops:
            if op[0] == "add":
                ring.add(op[1])
            elif op[0] == "remove":
                ring.remove(op[1])
            else:
                _, key, exclude = op
                assert ring.assign(key, exclude=exclude) == walk(
                    ring, key, exclude)
        keys = range(41)
        assert ring.assignment(keys) == {k: walk(ring, k) for k in keys}
