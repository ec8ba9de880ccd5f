"""Property tests: no interleaving of cache operations serves a wrong
entry.

A model dict tracks, for every key, the exact ``(version, value)`` of
its last ``put``.  Hypothesis drives random interleavings of ``put`` /
``get`` / ``purge_other_versions`` over the W-TinyLFU cache (window +
frequency-gated segmented main region + version stamps) and asserts the
one contract all the machinery must preserve: a returned value is
always the last one stored for that key, at the requested version.
Returning ``None`` is always legal (eviction, admission rejection);
returning anything stale never is.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import QueryResultCache

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, 11),      # key
            st.integers(0, 999),     # value
            st.integers(0, 2),       # version
        ),
        st.tuples(
            st.just("get"),
            st.integers(0, 11),
            st.integers(0, 2),
        ),
        st.tuples(st.just("purge"), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=150, deadline=None)
@given(ops=operations, maxsize=st.integers(1, 8))
def test_interleavings_never_serve_stale(ops, maxsize):
    cache = QueryResultCache(maxsize=maxsize)
    model = {}
    for op in ops:
        if op[0] == "put":
            _, key, value, version = op
            cache.put(key, value, version)
            model[key] = (version, value)
        elif op[0] == "get":
            _, key, version = op
            served = cache.get(key, version)
            if served is None:
                continue
            stored_version, stored_value = model[key]
            assert served == stored_value, "served a superseded value"
            assert stored_version == version, "served a stale version"
        else:
            survivor = op[1]
            cache.purge_other_versions(survivor)
            model = {
                key: entry
                for key, entry in model.items()
                if entry[0] == survivor
            }
    # Closing sweep: whatever survived must still obey the contract.
    for key, (version, value) in model.items():
        served = cache.get(key, version)
        if served is not None:
            assert served == value


@settings(max_examples=30, deadline=None)
@given(ops=operations, hot=st.integers(1000, 1003))
def test_admission_stays_live_after_any_history(ops, hot):
    """After any operation history, a newly hot key wins admission.

    The frequency sketch's halving must keep admission adaptive: no
    matter what popularity history the interleaving built up, a key
    requested persistently against background noise accumulates enough
    estimated frequency to displace a victim — a sketch that saturated
    or never aged would starve it forever.
    """
    cache = QueryResultCache(maxsize=8)
    for op in ops:
        if op[0] == "put":
            cache.put(op[1], op[2], 0)
        elif op[0] == "get":
            cache.get(op[1], 0)
        else:
            cache.purge_other_versions(0)
    for round_number in range(12 * cache.maxsize):
        if cache.get(hot, 0) is None:
            cache.put(hot, "payload", 0)
        # One-hit-wonder noise competing for the same slots.
        noise = ("noise", round_number)
        cache.get(noise, 0)
        cache.put(noise, round_number, 0)
    assert cache.get(hot, 0) == "payload"
