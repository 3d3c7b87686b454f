import collections
import math

import numpy as np

from qwake import qsearch
from qwake.qsearch import (
    SearchSpec,
    invocation_budget,
    iterated_budget,
    iterated_quantum_search,
    quantum_search,
    success_probability,
)


def marked_set(marked):
    marked = frozenset(marked)
    return lambda x: x in marked


def test_probability_closed_form_examples():
    # single-element space: k=0 already measures the marked element
    assert success_probability(1, 1, 0) == 1.0
    # N=4, C=1, one iteration: sin^2(3 * asin(1/2)) = sin^2(pi/2) = 1
    assert abs(success_probability(4, 1, 1) - 1.0) < 1e-12
    assert success_probability(8, 0, 3) == 0.0


def test_probability_matches_formula_grid():
    for n in range(1, 33):
        for c in range(0, n + 1):
            for k in (0, 1, 2, 5, 20):
                expect = (
                    math.sin((2 * k + 1) * math.asin(math.sqrt(c / n))) ** 2 if c else 0.0
                )
                assert abs(success_probability(n, c, k) - expect) < 1e-12


def test_single_element_space_returns_it():
    spec = SearchSpec((7,), marked_set({7}), n_global=16)
    t = quantum_search(spec, np.random.default_rng(0))
    assert t.result == 7
    assert t.oracle_calls == 1  # k=0 plus the verification call
    assert t.quantum_messages == 2 * t.oracle_calls


def test_no_marked_elements_always_null():
    for seed in range(50):
        spec = SearchSpec(tuple(range(1, 65)), marked_set(()), n_global=64)
        t = quantum_search(spec, np.random.default_rng(seed))
        assert t.result is None
        assert t.oracle_calls <= invocation_budget(64, 0, 64)
        assert t.oracle_calls <= math.ceil(qsearch.DEFAULT_SEARCH_C * 8 * math.log2(64))


def test_returned_element_is_always_marked():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        c = int(rng.integers(0, n + 1))
        marked = frozenset(int(x) for x in rng.choice(range(1, n + 1), size=c, replace=False))
        spec = SearchSpec(tuple(range(1, n + 1)), marked_set(marked), n_global=64)
        t = quantum_search(spec, rng)
        if t.result is not None:
            assert t.result in marked
        assert t.oracle_calls <= invocation_budget(n, c, 64)
        assert t.quantum_messages == 2 * t.oracle_calls
        assert t.rounds == t.oracle_calls


def test_search_deterministic_per_seed():
    spec = SearchSpec(tuple(range(1, 33)), marked_set({4, 9}), n_global=32)
    a = quantum_search(spec, np.random.default_rng(11))
    b = quantum_search(spec, np.random.default_rng(11))
    assert a == b


def test_found_element_uniform_over_marked():
    marked = {2, 5, 8}
    spec = SearchSpec(tuple(range(1, 9)), marked_set(marked), n_global=16)
    counts = collections.Counter()
    rng = np.random.default_rng(123)
    trials = 6000
    for _ in range(trials):
        t = quantum_search(spec, rng)
        counts[t.result] += 1
    assert set(counts) == marked
    for c in counts.values():
        assert abs(c / trials - 1 / 3) < 0.03


def test_iterated_no_marked_is_one_null_search():
    spec = SearchSpec(tuple(range(1, 9)), marked_set(()), n_global=16)
    found, t = iterated_quantum_search(spec, np.random.default_rng(1))
    assert found == set()
    assert len(t.invocations) == 1
    assert t.invocations[0].result is None


def test_iterated_finds_all_small_case():
    misses = 0
    trials = 10_000
    rng = np.random.default_rng(77)
    spec = SearchSpec((1, 2, 3, 4), marked_set({2, 3}), n_global=16)
    for _ in range(trials):
        found, _ = iterated_quantum_search(spec, rng)
        if found != {2, 3}:
            misses += 1
    # configured contract: failure <= 2 / n^2 at n_global = 16
    assert misses / trials <= 2 / 16**2


def test_iterated_all_marked_cost_bound():
    spec = SearchSpec(tuple(range(1, 17)), marked_set(range(1, 17)), n_global=64)
    for seed in range(20):
        found, t = iterated_quantum_search(spec, np.random.default_rng(seed))
        assert found == set(range(1, 17))
        assert t.oracle_calls <= iterated_budget(16, 16, 64)
        assert t.oracle_calls <= qsearch.DEFAULT_ITER_C * 16 * math.log2(64)


def test_iterated_cost_bound_random():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 64))
        c = int(rng.integers(0, n + 1))
        marked = frozenset(int(x) for x in rng.choice(range(1, n + 1), size=c, replace=False))
        spec = SearchSpec(tuple(range(1, n + 1)), marked_set(marked), n_global=64)
        found, t = iterated_quantum_search(spec, rng)
        assert found <= marked
        assert t.oracle_calls <= iterated_budget(n, c, 64)
        assert t.quantum_messages == 2 * t.oracle_calls


def _null_schedule_cost(n, reps):
    """Calls a null search makes when no budget binds, on average."""
    windows = qsearch._null_windows(qsearch._window_cap(n), reps)
    return float(sum(w / 2 + 1 for w in windows))


def test_null_block_draw_matches_scalar_loop():
    rng = np.random.default_rng(2026)
    kinds = collections.Counter()
    for case in range(3200):
        n = int(rng.integers(1, 2001))
        reps = int(rng.integers(1, 41))
        kind = case % 4
        if kind == 0:  # binds mid-schedule
            budget = int(rng.integers(1, max(2, int(_null_schedule_cost(n, reps)))))
        elif kind == 1:  # never binds
            budget = 10**9
        else:
            budget = kind - 2  # 0 and 1
        g_block = np.random.default_rng(case)
        g_scalar = np.random.default_rng(case)
        if case % 5 == 0:
            # leave a buffered 32-bit half-draw in both streams
            g_block.integers(0, 10)
            g_scalar.integers(0, 10)
        got = qsearch.search_invocation(n, 0, budget, reps, g_block)
        want = qsearch._scalar_search(n, 0, budget, reps, g_scalar)
        assert got == want, (n, reps, budget)
        assert g_block.bit_generator.state == g_scalar.bit_generator.state, (n, reps, budget)
        kinds["bound" if 0 < budget == got[1] else "free"] += 1
    # the seeded cases exercise the stream rewind as well as the plain path
    assert kinds["bound"] > 800 and kinds["free"] > 800


def _plain(state):
    """A bit generator state with its numpy arrays as lists, for ==."""
    return {
        k: _plain(v) if isinstance(v, dict) else v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in state.items()
    }


def test_null_search_on_philox_takes_the_scalar_loop():
    budget = invocation_budget(255, 0, 256) // 4  # binds mid-schedule
    for seed in range(20):
        g = np.random.Generator(np.random.Philox(seed))
        ref = np.random.Generator(np.random.Philox(seed))
        got = qsearch.search_invocation(255, 0, budget, 24, g)
        assert got == qsearch._scalar_search(255, 0, budget, 24, ref) == (-1, budget)
        assert _plain(g.bit_generator.state) == _plain(ref.bit_generator.state)
