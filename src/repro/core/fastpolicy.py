"""Exact set-decomposed fast engines for every replacement policy.

:mod:`repro.core.fastsim` solved the LRU axis offline (stack distances);
this module closes the gap for the remaining registered policies — FIFO,
PLRU, MRU, LFU and seeded Random — with replay kernels that are
*bit-identical* to driving :class:`~repro.core.caches.SetAssociativeCache`
one access at a time through :func:`~repro.core.simulator.simulate`:
equal hits/misses/lookup cycles, equal per-set histograms and equal
``extra`` hit classes.

Design
------
Every kernel runs off the shared stages of :mod:`repro.core.fastsim`: one
:func:`~repro.core.fastsim.decode` and one
:func:`~repro.core.fastsim.group_by_set`, which sorts the access stream
stably by set and marks the run heads (adjacent same-(set, block) repeats
removed).  A repeated access is a hit under **every** policy here, and
collapsing it preserves each policy's victim choice exactly:

* FIFO / Random — ``touch`` is a no-op, so hits mutate nothing;
* PLRU — ``touch`` is idempotent (re-touching the MRU way rewrites the
  same tree bits);
* MRU — re-touching the most-recent way advances the clock but changes no
  *relative* recency order, which is all the victim choice reads;
* LFU — ``touch`` increments a count, so the kernel consumes the *run
  lengths* instead of visiting each repeat.

LRU is not replayed at all: its member is the one exact LRU kernel,
:func:`~repro.core.fastsim.lru_stack_distances`, over the same grouping.

Per-policy kernels replay each set's run heads through a tiny
transliteration of the corresponding
:class:`~repro.core.replacement.ReplacementPolicy` state machine (cold
fills take the lowest empty way first, exactly like
``SetAssociativeCache._access_block``) and return only the miss vector.
FIFO reduces further: cold fills take ways ``0..w-1`` in order and refills
cycle through them, so the victim of fill number ``f`` is simply
``f mod w``.  Random is the one policy that is *not* set-decomposable — all
sets share one seeded PCG64 generator, so the victim stream is coupled to
the global interleaving of misses — and is replayed in global program order
over the same run heads, drawing from the generator in bulk when a one-time
probe proves NumPy's bulk ``integers`` word-compatible with scalar draws,
and falling back to per-victim scalar draws otherwise.

Entry points
------------
* :func:`policy_miss_flags` — per-access boolean miss vector for any
  policy, optionally over a grouping the caller already holds.
* :func:`simulate_policy_set_associative` — the stats-level engine behind
  ``policysweep`` cells and the CLI; ``engine="auto"``/``"sequential"``
  with identical packaging either way.
* :func:`simulate_policy_sweep` — a *policy sweep*: many policies over one
  decode and one set grouping (the engine's "policy" family axis).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from functools import lru_cache

import numpy as np

from ..trace.event import Trace
from .address import CacheGeometry
from .caches.base import EMPTY
from .caches.set_associative import SetAssociativeCache
from .fastsim import SetGroups, decode, group_by_set, lru_miss_flags
from .indexing.base import IndexingScheme
from .replacement import POLICIES
from .simulator import SimulationResult, _vectorised_result, simulate

__all__ = [
    "FAST_POLICIES",
    "policy_miss_flags",
    "simulate_policy_set_associative",
    "simulate_policy_sweep",
]

#: Policy registry names with an exact fast kernel (all registered policies).
FAST_POLICIES = ("lru", "fifo", "random", "plru", "mru", "lfu")

_ENGINES = ("auto", "sequential")


# -- per-policy replay kernels ----------------------------------------------------
#
# Each set-decomposed kernel consumes the run-head stream of a SetGroups
# and returns one miss byte per run head.  Loops run over plain Python
# ints (one bulk .tolist() per array) — the same boxing-hoist discipline
# as simulate()/fastassoc — with per-set dict-based residency.


def _replay_fifo(g: SetGroups, ways: int) -> bytearray:
    miss = bytearray(g.kept_pos.size)
    blk_l = g.kept_blk.tolist()
    bounds = g.bounds.tolist()
    for gi in range(len(bounds) - 1):
        resident: set[int] = set()
        blkof = [EMPTY] * ways
        fills = 0
        for j in range(bounds[gi], bounds[gi + 1]):
            blk = blk_l[j]
            if blk not in resident:
                miss[j] = 1
                # Cold fills take ways 0..w-1 in order; refills then cycle
                # through them in the same order (the FIFO queue is a pure
                # rotation), so the victim of fill #f is f mod w.
                wy = fills % ways
                old = blkof[wy]
                if old != EMPTY:
                    resident.remove(old)
                resident.add(blk)
                blkof[wy] = blk
                fills += 1
    return miss


def _replay_mru(g: SetGroups, ways: int) -> bytearray:
    miss = bytearray(g.kept_pos.size)
    blk_l = g.kept_blk.tolist()
    bounds = g.bounds.tolist()
    for gi in range(len(bounds) - 1):
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        occ = 0
        prev_way = 0
        for j in range(bounds[gi], bounds[gi + 1]):
            blk = blk_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                if occ < ways:
                    # MRUPolicy.victim prefers never-touched ways lowest
                    # index first, but a cold fill never reaches the policy:
                    # SetAssociativeCache fills the lowest EMPTY way.
                    wy = occ
                    occ += 1
                else:
                    # All ways touched: argmax(stamp) = the most recently
                    # touched way = the way of the previous (kept) access
                    # to this set (repeats re-touch the same way).
                    wy = prev_way
                    del resident[blkof[wy]]
                resident[blk] = wy
                blkof[wy] = blk
            prev_way = wy
    return miss


def _replay_lfu(g: SetGroups, ways: int) -> bytearray:
    miss = bytearray(g.kept_pos.size)
    blk_l = g.kept_blk.tolist()
    run_l = g.run_len.tolist()
    bounds = g.bounds.tolist()
    for gi in range(len(bounds) - 1):
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        counts = [0] * ways
        occ = 0
        for j in range(bounds[gi], bounds[gi + 1]):
            blk = blk_l[j]
            r = run_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                if occ < ways:
                    wy = occ
                    occ += 1
                else:
                    # LFUPolicy.victim = np.argmin → first way of minimal
                    # count (ties break toward the lower way index).
                    wy = counts.index(min(counts))
                    del resident[blkof[wy]]
                resident[blk] = wy
                blkof[wy] = blk
                # fill() sets the count to 1; the r-1 trailing repeats each
                # touch (+1), so the run contributes exactly r.
                counts[wy] = r
            else:
                counts[wy] += r
    return miss


@lru_cache(maxsize=None)
def _plru_touch_ops(ways: int) -> tuple:
    """Per-way ``((node, bit), ...)`` write lists of PLRUPolicy.touch."""
    levels = max(ways.bit_length() - 1, 0)
    ops = []
    for way in range(ways):
        node = 0
        path = []
        for level in range(levels):
            bit = (way >> (levels - 1 - level)) & 1
            path.append((node, 1 - bit))
            node = 2 * node + 1 + bit
        ops.append(tuple(path))
    return tuple(ops)


def _replay_plru(g: SetGroups, ways: int) -> bytearray:
    miss = bytearray(g.kept_pos.size)
    blk_l = g.kept_blk.tolist()
    bounds = g.bounds.tolist()
    touch_ops = _plru_touch_ops(ways)
    levels = max(ways.bit_length() - 1, 0)
    for gi in range(len(bounds) - 1):
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        bits = [0] * max(ways - 1, 1)
        occ = 0
        for j in range(bounds[gi], bounds[gi + 1]):
            blk = blk_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                if occ < ways:
                    wy = occ
                    occ += 1
                else:
                    # PLRUPolicy.victim: walk the tree following the bits.
                    node = 0
                    wy = 0
                    for _ in range(levels):
                        bit = bits[node]
                        wy = (wy << 1) | bit
                        node = 2 * node + 1 + bit
                    del resident[blkof[wy]]
                resident[blk] = wy
                blkof[wy] = blk
            # Touch on hit and on fill alike (fill defaults to touch);
            # repeats collapse because re-touching rewrites the same bits.
            for node, val in touch_ops[wy]:
                bits[node] = val
    return miss


_SET_KERNELS = {
    "fifo": _replay_fifo,
    "mru": _replay_mru,
    "lfu": _replay_lfu,
    "plru": _replay_plru,
}


@lru_cache(maxsize=None)
def _bulk_draws_exact(ways: int) -> bool:
    """Probe: does ``integers(ways, size=k)`` consume the PCG64 stream
    word-for-word like ``k`` scalar ``integers(ways)`` calls (split points
    included)?  True on every NumPy we support; the Random kernel falls
    back to scalar draws if a future NumPy changes the bulk path."""
    a = np.random.default_rng(0xC0FFEE)
    b = np.random.default_rng(0xC0FFEE)
    c = np.random.default_rng(0xC0FFEE)
    scal = np.array([b.integers(ways) for _ in range(37)])
    bulk = a.integers(ways, size=37)
    if not np.array_equal(scal, bulk):
        return False
    split = np.concatenate((c.integers(ways, size=13), c.integers(ways, size=24)))
    if not np.array_equal(scal, split):
        return False
    return (
        a.bit_generator.state == b.bit_generator.state == c.bit_generator.state
    )


def _replay_random(
    blocks: np.ndarray,
    indices: np.ndarray,
    g: SetGroups,
    num_sets: int,
    ways: int,
    seed: int,
) -> np.ndarray:
    """Global-order seeded-Random replay; returns the per-access miss vector.

    One generator serves every set, so victims depend on the global
    interleaving of misses across sets: the replay walks the run heads in
    *program* order (repeats are hits for Random too and consume no
    randomness).
    """
    heads = np.sort(g.order[g.kept_pos])
    idx_l = np.asarray(indices, dtype=np.int64)[heads].tolist()
    blk_l = np.asarray(blocks)[heads].tolist()
    miss_head = bytearray(len(idx_l))
    occ = [0] * num_sets
    blkof = [EMPTY] * (num_sets * ways)
    resident: set[int] = set()
    rng = np.random.default_rng(seed)
    bulk = _bulk_draws_exact(ways)
    buf: list[int] = []
    bp = 0
    bsize = 1024
    for k in range(len(idx_l)):
        s = idx_l[k]
        blk = blk_l[k]
        key = blk * num_sets + s
        if key in resident:
            continue
        miss_head[k] = 1
        o = occ[s]
        if o < ways:
            wy = o
            occ[s] = o + 1
        else:
            if bulk:
                if bp == len(buf):
                    buf = rng.integers(ways, size=bsize).tolist()
                    bp = 0
                    bsize = min(bsize * 2, 1 << 16)
                wy = buf[bp]
                bp += 1
            else:
                wy = int(rng.integers(ways))
            resident.remove(blkof[s * ways + wy] * num_sets + s)
        resident.add(key)
        blkof[s * ways + wy] = blk
    miss = np.zeros(g.n, dtype=bool)
    miss[heads] = np.frombuffer(miss_head, dtype=np.uint8).astype(bool)
    return miss


# -- stats-level engine -----------------------------------------------------------


def _validate_policy(policy: str, ways: int) -> None:
    if policy not in POLICIES:
        raise ValueError(
            f"unknown replacement policy {policy!r}; known: {sorted(POLICIES)}"
        )
    if policy == "plru" and ways & (ways - 1):
        raise ValueError("PLRU requires a power-of-two way count")


def policy_miss_flags(
    blocks: np.ndarray,
    indices: np.ndarray,
    ways: int,
    policy: str,
    num_sets: int | None = None,
    seed: int = 0,
    groups: SetGroups | None = None,
) -> np.ndarray:
    """Boolean miss vector for a ``ways``-way cache under any policy.

    Exact and bit-identical to driving
    :class:`~repro.core.caches.SetAssociativeCache` one access at a time.
    ``num_sets`` bounds the set-index range (required for ``random``,
    whose generator is shared across sets; inferred from the indices
    otherwise).  ``groups`` is ``group_by_set(blocks, indices)`` when the
    caller already holds it.  LRU routes to the stack-distance kernel.
    """
    if ways < 1:
        raise ValueError("ways must be a positive integer")
    _validate_policy(policy, ways)
    if policy == "lru":
        return lru_miss_flags(blocks, indices, ways, groups)
    g = group_by_set(blocks, indices) if groups is None else groups
    if policy == "random":
        if num_sets is None:
            num_sets = int(np.max(indices)) + 1 if g.n else 1
        return _replay_random(blocks, indices, g, num_sets, ways, seed)
    miss_sorted = np.zeros(g.n, dtype=bool)
    miss_kept = _SET_KERNELS[policy](g, ways)
    miss_sorted[g.kept_pos] = np.frombuffer(miss_kept, dtype=np.uint8).astype(bool)
    return g.unsort(miss_sorted)


def _canonical_model(scheme_name: str, ways: int, policy: str) -> str:
    return f"set_associative[{scheme_name},{ways}way,{policy}]"


def simulate_policy_set_associative(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry | None = None,
    ways: int | None = None,
    policy: str = "lru",
    seed: int = 0,
    warmup: int = 0,
    engine: str = "auto",
) -> SimulationResult:
    """k-way simulation under *any* registered replacement policy.

    Equivalent to ``simulate(SetAssociativeCache(geometry, scheme,
    policy=policy, seed=seed), trace, warmup=warmup)`` with the model
    renamed to the canonical ``set_associative[<scheme>,<k>way,<policy>]``
    — bit-identical counters, per-set histograms and ``extra`` classes,
    asserted by ``tests/core/test_fastpolicy_differential.py``.

    ``engine="auto"`` replays through the set-decomposed kernels of this
    module (LRU: the stack-distance kernel); ``"sequential"`` drives the
    real cache model and repackages — same results either way.  ``ways``
    must match the geometry's associativity: unlike the LRU-only
    stack-distance path there is no way to re-threshold a stateful-policy
    replay, so a mismatch is a genuinely unsupported configuration.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    geometry = geometry or scheme.geometry
    if ways is not None and int(ways) != geometry.ways:
        raise ValueError(
            f"policy simulation models the geometry's own associativity "
            f"({geometry.ways}); got ways={ways} — rebuild the geometry with "
            f"with_ways()/with_fixed_sets() instead"
        )
    ways = geometry.ways
    _validate_policy(policy, ways)
    model = _canonical_model(scheme.name, ways, policy)
    n = len(trace)
    if warmup >= n and n > 0:
        raise ValueError("warmup consumes the entire trace")
    if engine == "sequential":
        cache = SetAssociativeCache(geometry, scheme, policy=policy, seed=seed)
        res = simulate(cache, trace, warmup=warmup)
        return dc_replace(res, model=model)
    blocks, indices = decode(scheme, trace, geometry)
    miss = policy_miss_flags(
        blocks, indices, ways, policy, num_sets=geometry.num_sets, seed=seed
    )
    return _vectorised_result(
        model, trace.name, indices, miss, geometry.num_sets, warmup=warmup
    )


def simulate_policy_sweep(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry,
    policies,
    seed: int = 0,
    engine: str = "auto",
) -> list[SimulationResult]:
    """One *policy sweep* under one indexing scheme and geometry.

    Every member shares one decode and one set grouping; each policy then
    runs its own kernel off the shared grouping (LRU: stack distances;
    Random re-walks the shared run heads in program order).  Returns one
    result per policy, in order, each bit-identical (per-set counts
    included) to its :func:`simulate_policy_set_associative` per-cell
    equivalent — the contract behind the engine's "policy" family axis.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    policies = [str(p) for p in policies]
    ways = geometry.ways
    for policy in policies:
        _validate_policy(policy, ways)
    if engine == "sequential":
        return [
            simulate_policy_set_associative(
                scheme, trace, geometry, policy=p, seed=seed, engine="sequential"
            )
            for p in policies
        ]
    blocks, indices = decode(scheme, trace, geometry)
    g = group_by_set(blocks, indices)
    return [
        _vectorised_result(
            _canonical_model(scheme.name, ways, policy),
            trace.name,
            indices,
            policy_miss_flags(
                blocks, indices, ways, policy,
                num_sets=geometry.num_sets, seed=seed, groups=g,
            ),
            geometry.num_sets,
        )
        for policy in policies
    ]
