"""Amplitude-faithful simulation of bounded-budget quantum search.

A search invocation over N ports with C marked ones is simulated in the
two-dimensional rotation subspace: a run of k amplification iterations
measures a marked element with probability sin^2((2k+1) * asin(sqrt(C/N))),
and the measured marked element is uniform over the marked set. Every oracle
call is charged, including the verification of each measured candidate, and
the total never exceeds ceil(c * sqrt(N / max(1, C)) * log2 n).

Schedule (Boyer, Brassard, Hoyer and Tapp, *Tight bounds on quantum
searching*, 1998): repetitions of a growing-window loop, repeated up to a
repetition factor to reach the high-probability contract. Within a
repetition the window m starts at 1 and is multiplied by 6/5 after each
failed attempt, capped at ceil(sqrt(N)); the repetition ends after one
attempt at the cap. An attempt draws k uniformly from [0, m) with one
uniform, charges k + 1 calls, and measures with a second uniform; a success
draws a third uniform to pick the marked element. The budget is a hard cap:
k is clamped so the charge never exceeds it, and the invocation returns NULL
once the budget is exhausted.

``search_invocation`` is the only kernel, in Python and numpy, and it has
two paths that consume the Generator stream identically:

* C > 0, or a bit generator other than PCG64: the scalar loop above, one
  ``gen.random()`` per draw. A search with C > 0 usually stops after a few
  attempts, where drawing one at a time is cheaper than drawing the whole
  schedule (14 us against 30 us at C = 1).
* C = 0 on PCG64 (every ``np.random.default_rng``): no attempt can succeed,
  so the draws only set the call count. The whole schedule's 2A uniforms
  are drawn in one ``gen.random(2A)`` and the charges summed with
  ``cumsum``; when the budget binds at attempt i, the 2A - 2(i + 1) draws
  the scalar loop would not have made are taken back with a negative
  ``bit_generator.advance``. PCG64 steps back exactly; Philox advances in
  blocks of four draws, and MT19937 and SFC64 have no ``advance``, so every
  other bit generator takes the scalar loop.

There is no compiled kernel and no switch between kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

#: Recorded by the benchmark; the kernel is pure Python and numpy.
BACKEND = "python"

#: Budget constant c for a single invocation.
DEFAULT_SEARCH_C = 20.0
#: Budget constant c' for an iterated search; 3c makes the iterated bound a
#: consequence of the per-invocation caps.
DEFAULT_ITER_C = 60.0
#: Exponent of the high-probability contract (failure ~ 1/n^WHP_EXPONENT).
WHP_EXPONENT = 2


def log2n(n_global: int) -> float:
    return math.log2(max(n_global, 2))


def default_repetitions(n_global: int) -> int:
    return math.ceil(3 * log2n(n_global))


def success_probability(n_range: int, n_marked: int, k: int) -> float:
    """Probability that k amplification iterations measure a marked element."""
    if not (0 <= n_marked <= n_range) or n_range < 1:
        raise ValueError("need 0 <= marked <= range size, range nonempty")
    if n_marked == 0:
        return 0.0
    s = math.sin((2 * k + 1) * math.asin(math.sqrt(n_marked / n_range)))
    return s * s


def _window_cap(n_range: int) -> float:
    """ceil(sqrt(N)) as a float, without float round-off."""
    return float(math.isqrt(n_range - 1) + 1) if n_range > 1 else 1.0


@lru_cache(maxsize=1024)
def _null_windows(cap: float, reps: int) -> np.ndarray:
    """The window m of every attempt of a null search, ``reps`` repetitions
    long, built with the scalar loop's float operations. Read-only."""
    one_rep = []
    m = 1.0
    while True:
        one_rep.append(m)
        if m >= cap:
            break
        m = m * 1.2
        if m > cap:
            m = cap
    windows = np.array(one_rep * reps)
    windows.setflags(write=False)
    return windows


def _null_search(n_range: int, budget: int, reps: int, gen) -> tuple[int, int]:
    """A search with no marked port, drawing the whole schedule at once."""
    if budget <= 0 or reps <= 0:
        return -1, 0
    windows = _null_windows(_window_cap(n_range), reps)
    draws = gen.random(2 * len(windows))
    charges = (draws[0::2] * windows).astype(np.int64)
    charges += 1
    cum = charges.cumsum()
    total = int(cum[-1])
    if total <= budget:
        return -1, total
    # The scalar loop clamps attempt i, where the charge first reaches the
    # budget, and makes no draw after its second uniform.
    unused = len(draws) - 2 * (int(np.searchsorted(cum, budget)) + 1)
    if unused:
        bitgen = gen.bit_generator
        before = bitgen.state
        bitgen.advance(-unused)
        if before["has_uint32"]:
            # advance() drops the buffered 32-bit half-draw; random() never
            # touches it, so put it back.
            bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": before["uinteger"]}
    return -1, budget


def search_invocation(n_range: int, n_marked: int, budget: int, reps: int, gen) -> tuple[int, int]:
    """Run one search invocation.

    Returns (found_index, oracle_calls) where found_index is a uniform index
    into the marked set, or -1 when the invocation returns NULL.
    """
    if n_marked == 0 and type(gen.bit_generator) is np.random.PCG64:
        return _null_search(n_range, budget, reps, gen)
    return _scalar_search(n_range, n_marked, budget, reps, gen)


def _scalar_search(n_range: int, n_marked: int, budget: int, reps: int, gen) -> tuple[int, int]:
    """The schedule one draw at a time; the reference for ``_null_search``."""
    theta = math.asin(math.sqrt(n_marked / n_range)) if n_marked > 0 else 0.0
    cap = _window_cap(n_range)
    calls = 0
    rand = gen.random
    for _ in range(reps):
        m = 1.0
        while True:
            rem = budget - calls
            if rem <= 0:
                return -1, calls
            k = int(rand() * m)
            if k > rem - 1:
                k = rem - 1
            calls += k + 1
            u = rand()
            s = math.sin((2 * k + 1) * theta)
            if n_marked > 0 and u < s * s:
                idx = int(rand() * n_marked)
                if idx == n_marked:  # guard the u == 1.0-epsilon float edge
                    idx = n_marked - 1
                return idx, calls
            if m >= cap:
                break
            m = m * 1.2
            if m > cap:
                m = cap
    return -1, calls


def invocation_budget(n_range: int, n_marked: int, n_global: int, c: float = DEFAULT_SEARCH_C) -> int:
    return math.ceil(c * math.sqrt(n_range / max(1, n_marked)) * log2n(n_global))


def iterated_budget(n_range: int, n_marked: int, n_global: int, c_iter: float = DEFAULT_ITER_C) -> int:
    return math.ceil(c_iter * math.sqrt(n_range * max(1, n_marked)) * log2n(n_global))


@dataclass(frozen=True)
class SearchSpec:
    """One search problem: an ordered port range and a frozen predicate."""

    range: tuple[int, ...]
    marked_predicate: Callable[[int], bool]
    n_global: int
    repetition_factor: int | None = None
    search_c: float = DEFAULT_SEARCH_C

    def __post_init__(self):
        if not self.range:
            raise ValueError("search range must be nonempty")

    @property
    def repetitions(self) -> int:
        if self.repetition_factor is not None:
            return self.repetition_factor
        return default_repetitions(self.n_global)


@dataclass(frozen=True)
class SearchTranscript:
    result: int | None
    oracle_calls: int
    quantum_messages: int
    rounds: int


@dataclass(frozen=True)
class IteratedTranscript:
    oracle_calls: int
    quantum_messages: int
    rounds: int
    invocations: tuple[SearchTranscript, ...]


def quantum_search(spec: SearchSpec, rng) -> SearchTranscript:
    """Find one marked port, or NULL; exact call and message accounting."""
    ports = list(spec.range)
    marked = [x for x in ports if spec.marked_predicate(x)]
    budget = invocation_budget(len(ports), len(marked), spec.n_global, spec.search_c)
    idx, calls = search_invocation(len(ports), len(marked), budget, spec.repetitions, rng)
    result = marked[idx] if idx >= 0 else None
    return SearchTranscript(result, calls, 2 * calls, calls)


def iterated_quantum_search(spec: SearchSpec, rng) -> tuple[set[int], IteratedTranscript]:
    """Find every marked port by repeated search, removing found elements
    from the local range until a search returns NULL."""
    remaining = list(spec.range)
    found: set[int] = set()
    invocations: list[SearchTranscript] = []
    while remaining:
        sub = SearchSpec(
            tuple(remaining),
            spec.marked_predicate,
            spec.n_global,
            spec.repetition_factor,
            spec.search_c,
        )
        t = quantum_search(sub, rng)
        invocations.append(t)
        if t.result is None:
            break
        found.add(t.result)
        remaining.remove(t.result)
    calls = sum(t.oracle_calls for t in invocations)
    return found, IteratedTranscript(
        calls,
        sum(t.quantum_messages for t in invocations),
        sum(t.rounds for t in invocations),
        tuple(invocations),
    )
