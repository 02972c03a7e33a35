"""Unit tests for the core learning dynamics.

Expected values are either hand-derived from the update equations or checked
against independent brute-force re-implementations kept inside this module.
"""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwrnet import model
from gwrnet.model import (
    GROWING,
    STATIC,
    HyperParams,
    Network,
    activity,
    habituate,
    init_growing,
    init_static,
)

K0 = HyperParams(num_contexts=0, alpha=(1.0,), n_max=50)


def two_neuron_net(w0=(0.0, 0.0), w1=(5.0, 5.0), hyper=K0):
    return init_growing(2, hyper, (np.asarray(w0, float), np.asarray(w1, float)))


def brute_force_bmu(units, alpha, query):
    """Independent winner scan: plain loops, ties to the smaller id."""
    best = second = None
    best_d = second_d = math.inf
    for j in range(units.shape[0]):
        d = 0.0
        for k in range(units.shape[1]):
            d += alpha[k] * float(np.sum((query[k] - units[j, k]) ** 2))
        if d < best_d:
            second, second_d = best, best_d
            best, best_d = j, d
        elif d < second_d:
            second, second_d = j, d
    return best, second, best_d


# -- distance ------------------------------------------------------------------


def test_distance_identity_is_zero():
    net = two_neuron_net()
    assert net.distance(0, np.array([0.0, 0.0])) == 0.0


def test_distance_is_squared_euclidean_at_depth_zero():
    net = two_neuron_net()
    assert net.distance(0, np.array([3.0, 4.0])) == pytest.approx(25.0, rel=1e-12)


def test_distance_weights_input_term_with_reference_alphas():
    net = init_growing(2, HyperParams(n_max=10), (np.zeros(2), np.ones(2)))
    # all contexts zero, x=(1,0): only the input term alpha_0*1 contributes
    assert net.distance(0, np.array([1.0, 0.0])) == pytest.approx(0.67, rel=1e-12)


def test_distance_errors():
    net = two_neuron_net()
    with pytest.raises(ValueError):
        net.distance(0, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(KeyError):
        net.distance(7, np.array([1.0, 2.0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_depth_zero_reduction(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    alpha0 = float(rng.uniform(0.1, 2.0))
    hyper = HyperParams(num_contexts=0, alpha=(alpha0,), n_max=5)
    w = rng.normal(size=(2, dim))
    net = init_growing(dim, hyper, (w[0], w[1]))
    x = rng.normal(size=dim)
    expected = alpha0 * float(np.sum((x - w[0]) ** 2))
    assert net.distance(0, x) == pytest.approx(expected, rel=1e-12, abs=1e-15)


# -- find_bmu ------------------------------------------------------------------


def test_find_bmu_two_neurons():
    net = two_neuron_net()
    assert net.find_bmu(np.array([1.0, 1.0])) == (0, 1, pytest.approx(2.0, rel=1e-12))


def test_find_bmu_exact_match():
    net = two_neuron_net()
    b, s, d = net.find_bmu(np.array([5.0, 5.0]))
    assert (b, s) == (1, 0)
    assert d == 0.0


def test_find_bmu_needs_two_neurons():
    net = Network(K0, GROWING, np.zeros((1, 1, 2)))
    with pytest.raises(RuntimeError):
        net.find_bmu(np.zeros(2))


def test_find_bmu_matches_brute_force_scan(full_scan):
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(0, 3))
        alpha = tuple(rng.uniform(0.05, 1.0, size=k + 1))
        n = int(rng.integers(2, 51))
        hyper = HyperParams(num_contexts=k, alpha=alpha, n_max=max(n, 2))
        units, habs = np.empty((n, k + 1, dim)), np.empty(n)
        for row in range(n):
            units[row, 0] = rng.normal(size=dim)
            units[row, 1:] = rng.normal(size=(k, dim))
            habs[row] = rng.uniform(0, 1)
        net = Network(hyper, GROWING, units, habs)
        # random rows give a random context through a random previous winner
        net.prev_bmu = int(rng.integers(n))
        x = rng.normal(size=dim)
        got = net.find_bmu(x)
        query = np.concatenate((x[None], net.global_context), axis=0)
        want = brute_force_bmu(net.unit_table()[0], alpha, query)
        assert got[0] == want[0] and got[1] == want[1]
        assert got == full_scan(net, query)


# unit tables for the screen tests: duplicated rows, rows 1 ulp apart, large
# offsets (the worst case for the screen's cancellation), zero and tiny alpha
# entries, and values whose float32 products underflow (1e-20), that the
# float32 screen table holds only as subnormals (1e-40) or cannot hold at all
# (1e39)
SCREEN_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    dim=st.integers(1, 6),
    k=st.integers(0, 2),
    alpha_kind=st.lists(st.sampled_from(["normal", "zero", "tiny"]), min_size=3, max_size=3),
    tiny=st.sampled_from([1e-30, 1e-45, 1e-300]),
    offset=st.sampled_from([0.0, 1e6, -1e6, 1e20, -1e20]),
    scale=st.sampled_from([1.0, 1e-20, 1e-40, 1e39]),
    duplicates=st.integers(0, 5),
    ulp_apart=st.integers(0, 5),
)


def screen_case(seed, n, dim, k, alpha_kind, tiny, offset, scale, duplicates, ulp_apart):
    """The network a SCREEN_CASES draw describes, its units, and the
    generator, left ready to draw queries."""
    rng = np.random.default_rng(seed)
    weight = {"zero": lambda: 0.0, "tiny": lambda: tiny,
              "normal": lambda: float(rng.uniform(0.05, 1.0))}
    alpha = tuple(weight[kind]() for kind in alpha_kind[: k + 1])
    hyper = HyperParams(num_contexts=k, alpha=alpha, n_max=n)
    units = offset + scale * rng.normal(size=(n, k + 1, dim))
    for _ in range(duplicates):
        i, j = rng.integers(0, n, size=2)
        units[i] = units[j]
    for _ in range(ulp_apart):
        i, j = rng.integers(0, n, size=2)
        units[i] = np.nextafter(units[j], np.inf)
    return Network(hyper, GROWING, units), units, rng


@settings(max_examples=300, deadline=None)
@given(**SCREEN_CASES, query_on_unit=st.booleans())
@example(seed=0, n=2, dim=1, k=0, alpha_kind=["normal"] * 3, tiny=1e-30, offset=0.0,
         scale=1.0, duplicates=0, ulp_apart=0, query_on_unit=False)
@example(seed=1, n=2, dim=3, k=2, alpha_kind=["normal", "zero", "normal"], tiny=1e-30,
         offset=1e6, scale=1.0, duplicates=1, ulp_apart=0, query_on_unit=True)
@example(seed=2, n=30, dim=4, k=2, alpha_kind=["tiny", "zero", "zero"], tiny=1e-30,
         offset=0.0, scale=1.0, duplicates=2, ulp_apart=2, query_on_unit=False)
@example(seed=3, n=30, dim=4, k=1, alpha_kind=["normal"] * 3, tiny=1e-30, offset=0.0,
         scale=1e-40, duplicates=0, ulp_apart=3, query_on_unit=False)
@example(seed=4, n=30, dim=4, k=1, alpha_kind=["normal", "zero", "normal"], tiny=1e-30,
         offset=0.0, scale=1e39, duplicates=0, ulp_apart=0, query_on_unit=False)
@example(seed=5, n=30, dim=4, k=2, alpha_kind=["normal"] * 3, tiny=1e-30, offset=-1e20,
         scale=1.0, duplicates=0, ulp_apart=0, query_on_unit=True)
def test_screened_nearest_equals_full_scan(full_scan, query_on_unit, **case):
    """Winner, runner-up and distance are bit-identical to the einsum scan on
    every SCREEN_CASES unit table."""
    net, units, rng = screen_case(**case)
    query = units[rng.integers(0, case["n"])].copy() if query_on_unit else (
        case["offset"] + case["scale"] * rng.normal(size=units.shape[1:])
    )
    assert net._nearest(query) == full_scan(net, query)
    net.check_invariants()


@settings(max_examples=300, deadline=None)
@given(
    **SCREEN_CASES,
    queries=st.integers(1, 9),
    on_unit=st.integers(0, 3),
    past_gate=st.integers(0, 2),
    block=st.sampled_from([None, 1, 50]),
)
@example(seed=0, n=2, dim=1, k=0, alpha_kind=["normal"] * 3, tiny=1e-30, offset=0.0,
         scale=1.0, duplicates=0, ulp_apart=0, queries=1, on_unit=0, past_gate=0, block=None)
@example(seed=1, n=2, dim=3, k=2, alpha_kind=["normal", "zero", "normal"], tiny=1e-30,
         offset=1e6, scale=1.0, duplicates=1, ulp_apart=0, queries=4, on_unit=2, past_gate=0,
         block=None)
@example(seed=2, n=30, dim=4, k=2, alpha_kind=["tiny", "zero", "zero"], tiny=1e-30,
         offset=0.0, scale=1.0, duplicates=2, ulp_apart=2, queries=5, on_unit=0, past_gate=0,
         block=1)
@example(seed=3, n=30, dim=4, k=1, alpha_kind=["normal"] * 3, tiny=1e-30, offset=0.0,
         scale=1e-40, duplicates=0, ulp_apart=3, queries=7, on_unit=1, past_gate=1, block=50)
@example(seed=4, n=30, dim=4, k=1, alpha_kind=["normal", "zero", "normal"], tiny=1e-30,
         offset=0.0, scale=1e39, duplicates=0, ulp_apart=0, queries=3, on_unit=0, past_gate=0,
         block=None)
@example(seed=5, n=30, dim=4, k=2, alpha_kind=["normal"] * 3, tiny=1e-30, offset=-1e20,
         scale=1.0, duplicates=0, ulp_apart=0, queries=2, on_unit=2, past_gate=0, block=None)
def test_lockstep_nearest_equals_full_scan(full_scan, queries, on_unit, past_gate, block, **case):
    """Every query of one lockstep call gets the einsum scan's winner,
    runner-up and distance bit for bit, on every SCREEN_CASES unit table.
    Some queries copy a unit, some are large enough to pass _screen_gate and
    are re-ranked over every unit beside screened ones, and a small product
    block splits the screen into several row blocks; a second call matches a
    prefix of the queries."""
    net, units, rng = screen_case(**case)
    n = case["n"]
    stack = case["offset"] + case["scale"] * rng.normal(size=(queries,) + units.shape[1:])
    for i in rng.integers(0, queries, size=on_unit):
        stack[i] = units[rng.integers(0, n)]
    for i in rng.integers(0, queries, size=past_gate):
        stack[i] = 1e150 * rng.normal(size=units.shape[1:])
    saved = model._SCREEN_BLOCK
    model._SCREEN_BLOCK = block or saved
    try:
        for a in (queries, (queries + 1) // 2):
            winners, runner_ups, d_b = net._nearest_many(stack[:a])
            got = list(zip(winners.tolist(), runner_ups.tolist(), d_b.tolist()))
            assert got == [full_scan(net, q) for q in stack[:a]]
    finally:
        model._SCREEN_BLOCK = saved
    net.check_invariants()


def test_lockstep_nearest_mixes_screened_and_gated_queries(full_scan):
    """One call holds queries the screen ranks and queries past _screen_gate,
    which keep every unit; each gets the full scan's result."""
    rng = np.random.default_rng(11)
    hyper = HyperParams(num_contexts=2, alpha=(0.67, 0.24, 0.09), n_max=60)
    net = Network(hyper, GROWING, rng.normal(size=(60, 3, 4)))
    stack = rng.normal(size=(5, 3, 4))
    stack[[1, 3]] *= 1e150
    weighted = net._alpha_col * stack
    scale = net._sqmax + np.einsum("ijk,ijk->i", weighted, stack)
    assert (scale > net._screen_gate).tolist() == [False, True, False, True, False]
    winners, runner_ups, d_b = net._nearest_many(stack)
    got = list(zip(winners.tolist(), runner_ups.tolist(), d_b.tolist()))
    assert got == [full_scan(net, q) for q in stack]


def test_lockstep_nearest_rejects_overflowing_distances():
    net = two_neuron_net(hyper=HyperParams(num_contexts=0, alpha=(1e308,), n_max=50))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="matching distances overflow"):
            net.match(np.array([[0.0, 0.0], [2.0, 2.0]]), np.full(2, -1))


def test_match_restarts_a_sequence_whose_previous_winner_is_reset():
    """A row whose previous winner is -1 starts again from a zero context,
    as a fresh one-row call does, and match leaves ``prev`` as it was."""
    net = _trained_net()
    frames = np.random.default_rng(4).normal(size=(3, 2, 3))
    prev = np.full(2, -1)
    for x in frames:
        prev = net.match(x, prev)[0]
    prev[1] = -1
    kept = prev.copy()
    got = net.match(frames[0], prev)
    want = net.match(frames[0, 1:], np.full(1, -1))
    assert [g[1] for g in got] == [w[0] for w in want]
    assert np.array_equal(prev, kept)


def test_einsum_rows_are_bitwise_equal_on_a_row_subset():
    """The exact re-rank and the norm cache evaluate the distance einsum on a
    few rows; each row must come out as in an einsum over all rows."""
    rng = np.random.default_rng(3)
    alpha = np.array([0.67, 0.24, 0.09])
    for n in (300, 2500):
        units = rng.normal(size=(n, 3, 16)) * rng.uniform(0.5, 20.0, size=(n, 1, 1))
        query = rng.normal(size=(3, 16))
        diff = units - query
        full = np.einsum("j,ijk,ijk->i", alpha, diff, diff)
        norms = np.einsum("j,ijk,ijk->i", alpha, units, units)
        for size in (1, 2, 3, 5, 17, 64):
            rows = np.sort(rng.choice(n, size=size, replace=False))
            sub = units[rows] - query
            assert np.array_equal(np.einsum("j,ijk,ijk->i", alpha, sub, sub), full[rows])
            assert np.array_equal(
                np.einsum("j,ijk,ijk->i", alpha, units[rows], units[rows]), norms[rows]
            )


def test_find_bmu_breaks_ties_by_smaller_id():
    net = two_neuron_net(w0=(1.0, 1.0), w1=(1.0, 1.0))
    b, s, _ = net.find_bmu(np.array([0.0, 0.0]))
    assert (b, s) == (0, 1)


def test_step_rejects_overflowing_distances():
    """With every distance inf, the runner-up search would return the winner
    again; the match names the overflow instead."""
    net = two_neuron_net(hyper=HyperParams(num_contexts=0, alpha=(1e308,), n_max=50))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="matching distances overflow"):
            net.step(np.array([2.0, 2.0]))


# -- input validation and invariants ----------------------------------------------


def _trained_net():
    rng = np.random.default_rng(2)
    hyper = HyperParams(num_contexts=2, alpha=(0.67, 0.24, 0.09), n_max=15)
    net = init_growing(3, hyper, (rng.normal(size=3), rng.normal(size=3)))
    for i, x in enumerate(rng.normal(size=(150, 3)) * 2):
        if i % 11 == 0:
            net.reset_context()
        net.step(x)
    return net


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda net, x: net.step(x),
        lambda net, x: net.replay_step(x),
        lambda net, x: net.find_bmu(x),
        lambda net, x: net.match(np.stack([np.zeros(3), x]), np.full(2, -1)),
        lambda net, x: net.adapt(0, x),
        lambda net, x: net.maybe_insert(x, 0, 1, 0.0),
        lambda net, x: net.distance(0, x),
    ],
    ids=["step", "replay_step", "find_bmu", "match", "adapt", "maybe_insert", "distance"],
)
def test_non_finite_frame_is_rejected_without_side_effects(call, bad):
    net = _trained_net()
    net._hab[0] = 0.05  # open the insertion gate, above the floor 1 - 1/kappa
    before = (net._units.copy(), net._hab.copy(), net._sqnorm32.copy(), net.global_context)
    x = np.array([0.5, bad, 0.5])
    with pytest.raises(ValueError, match="non-finite"):
        call(net, x)
    assert np.array_equal(net._units, before[0])
    assert np.array_equal(net._hab, before[1])
    assert np.array_equal(net._sqnorm32, before[2])
    assert np.array_equal(net.global_context, before[3])
    net.check_invariants()


@pytest.mark.parametrize(
    "bad_prev",
    [
        lambda net: np.full(3, -1),
        lambda net: np.full(2, -1.0),
        lambda net: np.array([0, net.num_neurons]),
        lambda net: np.array([-2, 0]),
    ],
    ids=["wrong_length", "float", "past_last_id", "below_minus_one"],
)
def test_match_rejects_bad_previous_winners_without_side_effects(bad_prev):
    net = _trained_net()
    prev = bad_prev(net)
    before = (net._units.copy(), net._hab.copy(), net.prev_bmu, prev.copy())
    with pytest.raises(ValueError, match="prev must hold"):
        net.match(np.zeros((2, 3)), prev)
    assert np.array_equal(net._units, before[0])
    assert np.array_equal(net._hab, before[1])
    assert net.prev_bmu == before[2]
    assert np.array_equal(prev, before[3])
    net.check_invariants()


def _overflow_with_finite_bound(net):
    """A unit entry past the float32 maximum, cast and cached as _store_norms
    would, under a norm bound that still lets the screen run."""
    net._units[1, 0, 0] = 1e39
    net._store_norms(slice(1, 2), net._units[1:2])
    units = net._units[: net.num_neurons]
    net._sqmax = float(np.einsum("j,ijk,ijk->i", net._alpha, units, units).max())


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda net: net._adj[0].add(0), "self-edge"),
        (lambda net: net._adj[0].discard(net.neighbors(0)[0]), "not symmetric"),
        (lambda net: net._hab.__setitem__(1, 1.5), "habituation"),
        (lambda net: net._hab.__setitem__(1, 0.04), "below the floor"),
        (lambda net: net._units.__setitem__((1, 0, 0), np.nan), "non-finite"),
        (lambda net: net._units.__setitem__((1, 0, 0), 3.0), "stale"),
        (lambda net: setattr(net, "_prev_bmu", net.num_neurons), "prev_bmu"),
        (lambda net: net._units32.__setitem__((1, 0, 0), net._units32[1, 0, 0] + 1),
         "float32 screen table is stale"),
        (lambda net: net._sqnorm32.__setitem__(1, net._sqnorm32[1] + 1),
         "float32 screen table is stale"),
        (_overflow_with_finite_bound, "norm bound is finite over an overflowed float32 table"),
    ],
    ids=[
        "self-edge", "one-sided-edge", "habituation", "habituation-floor", "non-finite",
        "stale-norm", "dangling-prev-bmu", "stale-screen-table", "stale-screen-norm",
        "unflagged-float32-overflow",
    ],
)
def test_check_invariants_names_each_violation(corrupt, message):
    net = _trained_net()
    net.check_invariants()
    corrupt(net)
    with pytest.raises(RuntimeError, match=message):
        net.check_invariants()


# -- global context ------------------------------------------------------------


def test_context_zero_at_sequence_start():
    net = init_growing(2, HyperParams(n_max=10), (np.zeros(2), np.ones(2)))
    assert net.prev_bmu is None
    ctx = net.global_context
    assert ctx.shape == (2, 2) and np.all(ctx == 0.0)


def test_context_depth_one_equals_previous_winner_weight():
    net = init_growing(2, HyperParams(n_max=10), (np.array([1.0, 0.0]), np.ones(2)))
    net.prev_bmu = 0
    ctx = net.global_context
    # C_1 = beta*w + (1-beta)*c_{b,0} with c_{b,0} = w, so exactly w
    assert np.allclose(ctx[0], [1.0, 0.0], rtol=1e-12)


def test_context_depth_two_blends_weight_with_first_descriptor():
    units = np.zeros((2, 3, 2))
    units[0] = [[1.0, 0.0], [0.0, 2.0], [5.0, 5.0]]
    net = Network(HyperParams(n_max=10), GROWING, units)
    net.prev_bmu = 0
    # C_2 = beta*w + (1-beta)*c_{b,1}; c_{b,2} plays no part
    assert np.allclose(net.global_context[1], [0.7, 0.6], rtol=1e-12)


def test_one_context_rule_between_steps():
    """At any point of a growing stream, find_bmu, match and distance read the
    context the next step matches with: the one prev_bmu derives."""
    rng = np.random.default_rng(23)
    hyper = HyperParams(num_contexts=2, alpha=(0.6, 0.3, 0.1), n_max=40)
    alpha = np.asarray(hyper.alpha)
    net = init_growing(3, hyper, (rng.normal(size=3), rng.normal(size=3)))
    probed = []
    for t in range(400):
        if t % 23 == 0:
            net.reset_context()
        x = rng.normal(size=3) * 2
        if rng.random() < 0.25:
            prev = net.prev_bmu
            got = net.find_bmu(x)
            winners, runners_up, d_b = net.match(x[None], np.array([-1 if prev is None else prev]))
            assert got == (int(winners[0]), int(runners_up[0]), float(d_b[0]))
            query = np.concatenate((x[None], net.global_context))
            i = int(rng.integers(net.num_neurons))
            diff = net.unit_table()[0][i] - query
            assert net.distance(i, x) == float(np.einsum("j,jk,jk->", alpha, diff, diff))
            out = net.step(x)
            assert (out.bmu_id, out.second_id, out.distance) == got
            probed.append(prev)
        else:
            net.step(x)
    assert net.num_neurons > 10 and len(probed) > 50
    assert None in probed and sum(p is not None for p in probed) > 40


def test_reset_context_clears_stack_and_winner():
    net = init_growing(2, HyperParams(n_max=10), (np.ones(2), np.zeros(2)))
    net.step(np.ones(2))
    assert net.prev_bmu is not None
    net.reset_context()
    assert net.prev_bmu is None
    assert np.all(net.global_context == 0.0)


@pytest.mark.parametrize(
    "bad",
    [-1, "past-neurons", "past-storage", True, 1.0],
    ids=["minus-one", "past-neurons", "past-storage", "bool", "float"],
)
def test_prev_bmu_setter_takes_none_or_a_neuron_id(bad):
    """-1 would read the last storage row as the previous winner, an id past
    the neurons an unused storage row, an id past the storage would fail
    inside matching, and True or 1.0 pass for 1 in indexing: the setter
    rejects them all by Network.has_neuron."""
    rng = np.random.default_rng(3)
    net = init_growing(3, HyperParams(n_max=40), rng.normal(size=(2, 3)))
    for x in rng.normal(size=(30, 3)) * 2:
        net.step(x)
    assert net.num_neurons < len(net._units)
    if bad == "past-neurons":
        bad = net.num_neurons
    elif bad == "past-storage":
        bad = len(net._units)
    net.prev_bmu = 1
    context = net.global_context
    with pytest.raises(KeyError, match=re.escape(f"no neuron with id {bad!r}")):
        net.prev_bmu = bad
    assert net.prev_bmu == 1 and np.array_equal(net.global_context, context)
    net.prev_bmu = None
    assert np.all(net.global_context == 0.0)
    net.check_invariants()


# -- activity ------------------------------------------------------------------


def test_activity_values():
    assert activity(0.0) == 1.0
    assert activity(0.67) == pytest.approx(math.exp(-0.67), rel=1e-12)
    assert 0.0 < activity(50.0) < 1e-20


def test_activity_rejects_negative_distance():
    with pytest.raises(ValueError):
        activity(-1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=700.0))
def test_activity_bounds(d):
    a = activity(d)
    assert 0.0 < a <= 1.0
    if d == 0.0:
        assert a == 1.0
    if a == 1.0:  # exp rounds to 1 only below one ulp
        assert d < 1e-15


# -- habituation ---------------------------------------------------------------


def test_habituate_from_one():
    assert habituate(1.0, 0.3, 1.05) == pytest.approx(0.7, rel=1e-12)


def test_habituate_fixed_point():
    fp = 1.0 - 1.0 / 1.05
    assert habituate(fp, 0.3, 1.05) == pytest.approx(fp, rel=1e-12)


def test_habituate_mid_value():
    assert habituate(0.5, 0.1, 1.05) == pytest.approx(0.4525, rel=1e-12)


def test_habituate_is_elementwise_on_arrays():
    h, tau = np.array([0.5, 1.0, 0.01]), np.array([0.1, 0.3, 0.3])
    expected = [habituate(a, b, 1.05) for a, b in zip(h.tolist(), tau.tolist())]
    assert habituate(h, tau, 1.05).tolist() == expected


@pytest.mark.parametrize("tau", [0.1, 0.3])
def test_habituation_decreases_and_converges(tau):
    kappa = 1.05
    floor = 1.0 - 1.0 / kappa
    h = 1.0
    for _ in range(2000):
        nxt = habituate(h, tau, kappa)
        if h - floor > 1e-12:
            assert nxt < h
        else:  # numerically at the fixed point
            assert nxt <= h
        assert nxt > floor - 1e-12
        h = nxt
    assert abs(h - floor) < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1.0 + 1e-6, max_value=3.0),
)
def test_habituate_stays_in_unit_interval(h, tau, kappa):
    assert 0.0 <= habituate(h, tau, kappa) <= 1.0


# -- adaptation ----------------------------------------------------------------


def test_adapt_moves_winner_halfway_at_full_habituation():
    net = two_neuron_net()
    adapted = net.adapt(0, np.array([1.0, 0.0]))
    assert adapted == [0]
    assert np.allclose(net.unit_table()[0][0, 0], [0.5, 0.0], rtol=1e-12)


def test_adapt_frozen_at_zero_habituation():
    net = two_neuron_net()
    net._hab[0] = 0.0
    net.adapt(0, np.array([1.0, 0.0]))
    assert np.all(net.unit_table()[0][0, 0] == [0.0, 0.0])


def test_adapt_touches_neighbors():
    net = two_neuron_net()
    net.connect(0, 1)
    adapted = net.adapt(0, np.array([1.0, 0.0]))
    assert adapted == [0, 1]
    # neighbor moved by eps_n * h * delta
    expect = np.array([5.0, 5.0]) + K0.eps_n * 1.0 * (np.array([1.0, 0.0]) - [5.0, 5.0])
    assert np.allclose(net.unit_table()[0][1, 0], expect, rtol=1e-12)


def test_adapt_updates_habituation_after_weights():
    net = two_neuron_net()
    net.connect(0, 1)
    net.adapt(0, np.array([1.0, 0.0]))
    assert net.unit_table()[1][0] == pytest.approx(habituate(1.0, K0.tau_b, K0.kappa))
    assert net.unit_table()[1][1] == pytest.approx(habituate(1.0, K0.tau_n, K0.kappa))


def test_adapt_contracts_distance_to_input():
    rng = np.random.default_rng(3)
    for _ in range(50):
        net = two_neuron_net(w0=rng.normal(size=2), w1=rng.normal(size=2) + 10)
        net._hab[0] = float(rng.uniform(0.05, 1.0))
        x = rng.normal(size=2)
        before = float(np.sum((net.unit_table()[0][0, 0] - x) ** 2))
        net.adapt(0, x)
        after = float(np.sum((net.unit_table()[0][0, 0] - x) ** 2))
        assert after < before or before == 0.0


def test_adapt_pulls_contexts_toward_global_context():
    # with beta 0.5, previous winner 1 derives the context [[1, 1], [2, 2]]
    units = np.zeros((2, 3, 2))
    units[1, :2] = [[1.0, 1.0], [3.0, 3.0]]
    net = Network(HyperParams(beta=0.5, n_max=10), GROWING, units)
    net.prev_bmu = 1
    assert np.array_equal(net.global_context, [[1.0, 1.0], [2.0, 2.0]])
    net.adapt(0, np.zeros(2))
    assert np.allclose(net.unit_table()[0][0, 1], [0.5, 0.5], rtol=1e-12)
    assert np.allclose(net.unit_table()[0][0, 2], [1.0, 1.0], rtol=1e-12)


# -- insertion and wiring --------------------------------------------------------


def test_insertion_halfway_between_winner_and_input():
    net = two_neuron_net()
    net._hab[0] = 0.05
    new_id = net.maybe_insert(np.array([1.0, 1.0]), 0, 1, act=0.2)
    assert new_id == 2
    assert np.allclose(net.unit_table()[0][2, 0], [0.5, 0.5], rtol=1e-12)
    assert net.unit_table()[1][2] == 1.0


def test_insertion_rewires_winner_pair():
    net = two_neuron_net()
    net.connect(0, 1)
    net._hab[0] = 0.05
    new_id = net.maybe_insert(np.array([1.0, 1.0]), 0, 1, act=0.2)
    assert 0 in net.neighbors(new_id) and 1 in net.neighbors(new_id)
    assert 1 not in net.neighbors(0)


def test_insertion_context_midpoint():
    # with beta 0.5, previous winner 1 derives the context [[1, 0], [0, 1]]
    units = np.zeros((2, 3, 2))
    units[1, :2] = [[1.0, 0.0], [-1.0, 2.0]]
    net = Network(HyperParams(beta=0.5, n_max=10), GROWING, units)
    net.prev_bmu = 1
    assert np.array_equal(net.global_context, [[1.0, 0.0], [0.0, 1.0]])
    net._hab[0] = 0.05
    new_id = net.maybe_insert(np.zeros(2), 0, 1, act=0.2)
    assert np.allclose(net.unit_table()[0][new_id, 1:], [[0.5, 0.0], [0.0, 0.5]], rtol=1e-12)


@pytest.mark.parametrize(
    "bmu_id, second_id, error",
    [
        (-1, 0, KeyError), (0, 7, KeyError), (0, 0, ValueError),
        (1.0, 0, KeyError), (True, 0, KeyError), (0, np.int64(1), KeyError),
    ],
    ids=[
        "negative-winner", "missing-runner-up", "same-neuron",
        "float-winner", "bool-winner", "numpy-int-runner-up",
    ],
)
def test_insertion_rejects_bad_ids_without_side_effects(bmu_id, second_id, error):
    net = two_neuron_net()
    net._hab[:2] = 0.05
    units, habs = (a.copy() for a in net.unit_table())
    with pytest.raises(error):
        net.maybe_insert(np.array([1.0, 1.0]), bmu_id, second_id, act=0.2)
    assert np.array_equal(net.unit_table()[0], units)
    assert np.array_equal(net.unit_table()[1], habs)
    assert net.edges == [] and net.num_neurons == 2


@pytest.mark.parametrize("bad", [1.0, True, np.int64(1)], ids=["float", "bool", "numpy-int"])
@pytest.mark.parametrize("call", ["connect", "adapt", "distance", "neighbors"])
def test_ids_that_are_not_ints_are_rejected_without_side_effects(call, bad):
    """Network.has_neuron's id rule, inherited by every method that takes an
    id: a float, a bool or a numpy integer names no neuron, even when it
    equals a valid id."""
    net = two_neuron_net()
    units, habs = (a.copy() for a in net.unit_table())
    x = np.array([1.0, 1.0])
    calls = {
        "connect": lambda: net.connect(bad, 0),
        "adapt": lambda: net.adapt(bad, x),
        "distance": lambda: net.distance(bad, x),
        "neighbors": lambda: net.neighbors(bad),
    }
    with pytest.raises(KeyError, match=re.escape(f"no neuron with id {bad!r}")):
        calls[call]()
    assert np.array_equal(net.unit_table()[0], units)
    assert np.array_equal(net.unit_table()[1], habs)
    assert net.edges == [] and net.num_neurons == 2
    net.check_invariants()


def test_no_insertion_above_activity_threshold():
    net = two_neuron_net()
    net._hab[0] = 0.05
    assert net.maybe_insert(np.array([1.0, 1.0]), 0, 1, act=0.9) is None


def test_no_insertion_above_habituation_threshold():
    net = two_neuron_net()
    assert net.maybe_insert(np.array([1.0, 1.0]), 0, 1, act=0.2) is None


def test_no_insertion_at_capacity():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=2)
    net = init_growing(2, hyper, (np.zeros(2), np.ones(2)))
    net._hab[0] = 0.05
    assert net.maybe_insert(np.array([9.0, 9.0]), 0, 1, act=0.01) is None


def test_static_never_inserts():
    net = init_static(2, HyperParams(num_contexts=0, alpha=(1.0,), n_max=5), 0.0, 1.0, 1)
    net._hab[0] = 0.01
    assert net.maybe_insert(np.array([50.0, 50.0]), 0, 1, act=0.001) is None


def test_connect_creates_idempotently_and_rejects_self_edges():
    net = two_neuron_net()
    assert 1 not in net.neighbors(0)
    net.connect(0, 1)
    assert 1 in net.neighbors(0) and 0 in net.neighbors(1)
    net.connect(0, 1)
    assert net.edges == [(0, 1)]
    with pytest.raises(ValueError):
        net.connect(1, 1)


# -- full iteration -------------------------------------------------------------


def test_first_step_of_sequence_uses_zero_context_and_records_nothing():
    hyper = HyperParams(n_max=10)
    net = init_growing(2, hyper, (np.zeros(2), np.ones(2)))
    out = net.step(np.array([1.0, 0.0]))
    # with zero context the distance is exactly the alpha_0 input term
    assert out.distance == pytest.approx(0.67, rel=1e-12)
    assert net.transitions == []


def test_step_records_transition_between_consecutive_winners():
    net = two_neuron_net()
    net.step(np.array([0.1, 0.0]))
    net.step(np.array([5.0, 5.1]))
    assert net.transitions == [(0, 1, 1)]
    # a replayed step after a winner records nothing
    net.replay_step(np.array([0.1, 0.0]))
    assert net.transitions == [(0, 1, 1)]


def test_step_insertion_path():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=10)
    net = init_growing(2, hyper, (np.zeros(2), np.array([10.0, 10.0])))
    net._hab[0] = 0.05
    out = net.step(np.array([4.0, 0.0]))
    assert out.inserted == 2
    # inserting replaces adaptation: the winner keeps its weight
    assert np.array_equal(net.unit_table()[0][0, 0], [0.0, 0.0])
    assert net.unit_table()[1][0] == 0.05
    assert net.num_neurons == 3
    # the input is credited to the inserted neuron, not the winner
    assert (out.bmu_id, out.credited) == (0, 2)
    # previous winner stays the matching result, not the insert
    assert net.prev_bmu == 0
    # a step that inserts nothing credits its winner
    out = net.step(np.array([4.0, 0.0]))
    assert out.inserted is None and out.credited == out.bmu_id


def test_step_insertion_leaves_existing_weights_bitwise_unchanged():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=10)
    net = init_growing(2, hyper, (np.zeros(2), np.array([10.0, 10.0])))
    net._hab[0] = 0.05
    before = net._units[:2].copy()
    out = net.step(np.array([4.0, 0.0]))
    assert out.inserted is not None
    assert np.array_equal(before, net._units[:2])


def test_step_adaptation_path_wires_winner_pair():
    net = two_neuron_net()
    out = net.step(np.array([1.0, 1.0]))
    assert out.inserted is None
    # only the winner adapts: the runner-up was not yet its neighbor
    assert np.allclose(net.unit_table()[0][0, 0], [0.5, 0.5], rtol=1e-12)
    assert np.array_equal(net.unit_table()[0][1, 0], [5.0, 5.0])
    assert 1 in net.neighbors(0)
    assert net.prev_bmu == 0
    assert net.step_count == 1


def test_step_static_mode_never_inserts():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=4)
    net = init_static(2, hyper, 0.0, 1.0, 9)
    rng = np.random.default_rng(0)
    for _ in range(200):
        out = net.step(rng.normal(size=2) * 20)
        assert out.inserted is None
    assert net.num_neurons == 4


def test_step_activity_matches_distance():
    net = two_neuron_net()
    out = net.step(np.array([1.0, 1.0]))
    assert out.activity == pytest.approx(math.exp(-out.distance), rel=1e-12)


# -- insertion gating (randomized) ----------------------------------------------


def test_insertion_gate_holds_under_random_streams():
    rng = np.random.default_rng(11)
    hyper = HyperParams(num_contexts=1, alpha=(0.8, 0.2), n_max=12)
    net = init_growing(3, hyper, (rng.normal(size=3), rng.normal(size=3)))
    for step_index in range(400):
        if step_index % 17 == 0:
            net.reset_context()
        x = rng.normal(size=3) * 3
        probe = copy.deepcopy(net)
        out = net.step(x)
        assert net.num_neurons <= hyper.n_max
        # re-derive the gate on the pre-step clone
        b, s, d = probe.find_bmu(x)
        a = math.exp(-d)
        gate = (
            a < hyper.insertion_threshold
            and probe.unit_table()[1][b] < hyper.habituation_threshold
            and probe.num_neurons < hyper.n_max
        )
        assert (out.inserted is not None) == gate


# -- construction ----------------------------------------------------------------


def test_init_growing_copies_inputs():
    net = init_growing(2, K0, (np.array([0.0, 0.0]), np.array([1.0, 1.0])))
    assert net.num_neurons == 2
    assert np.array_equal(net.unit_table()[0][0, 0], [0.0, 0.0])
    assert np.array_equal(net.unit_table()[0][1, 0], [1.0, 1.0])
    assert net.edges == []
    assert net.mode == GROWING


def test_init_growing_zero_contexts_and_full_habituation():
    net = init_growing(2, HyperParams(n_max=10), (np.zeros(2), np.ones(2)))
    for neuron_id in (0, 1):
        assert np.all(net.unit_table()[0][neuron_id, 1:] == 0.0)
        assert net.unit_table()[1][neuron_id] == 1.0


def test_init_growing_accepts_identical_inputs_and_rejects_bad_dim():
    net = init_growing(2, K0, (np.ones(2), np.ones(2)))
    assert net.num_neurons == 2
    with pytest.raises(ValueError):
        init_growing(2, K0, (np.ones(3), np.ones(2)))


def test_init_static_is_deterministic_per_seed():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=40)
    a = init_static(4, hyper, -1.0, 1.0, 123)
    b = init_static(4, hyper, -1.0, 1.0, 123)
    c = init_static(4, hyper, -1.0, 1.0, 124)
    assert a.num_neurons == 40 and a.mode == STATIC
    assert np.array_equal(a._units, b._units)
    assert not np.array_equal(a._units, c._units)


def test_init_static_degenerate_bounds():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=5)
    net = init_static(3, hyper, 0.0, 0.0, 7)
    assert np.all(net._units[:5, 0] == 0.0)


def test_init_static_rejects_inverted_bounds():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=5)
    with pytest.raises(ValueError):
        init_static(2, hyper, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_init_growing_rejects_non_finite_seed_inputs(bad):
    with pytest.raises(ValueError, match="non-finite"):
        init_growing(2, HyperParams(n_max=10), (np.array([bad, 0.0]), np.ones(2)))


@pytest.mark.parametrize(
    "low, high", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)],
    ids=["nan", "inf", "minus-inf", "range-overflows"],
)
def test_init_static_rejects_non_finite_bounds(low, high):
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=5)
    with pytest.raises(ValueError, match="finite"):
        init_static(2, hyper, np.array([low, 0.0]), np.array([high, 1.0]), 7)


def test_constructor_takes_back_the_table_unit_table_returns():
    net = _trained_net()
    units, habs = net.unit_table()
    rebuilt = Network(net.hyper, GROWING, units, habs)
    assert np.array_equal(rebuilt.unit_table()[0], units)
    assert np.array_equal(rebuilt.unit_table()[1], habs)
    assert rebuilt.dim == 3 and rebuilt.edges == [] and rebuilt.prev_bmu is None
    rebuilt.check_invariants()


@pytest.mark.parametrize(
    "units, habs, message",
    [
        (np.zeros((2, 2)), 1.0, r"units of shape \(2, 2\) are not a \(count, 1, dim\) table"),
        (np.zeros((2, 1, 0)), 1.0, "input dimension must be positive"),
        (np.zeros((2, 3, 2)), 1.0, r"unit rows of depth 3 need num_contexts \+ 1 = 1"),
        (np.array([[[0.0, np.inf]], [[1.0, 1.0]]]), 1.0, "unit rows hold non-finite values"),
        (np.zeros((2, 1, 2)), float("nan"), r"habituations must be finite and lie in \[0, 1\]"),
        (np.zeros((2, 1, 2)), 1.5, r"habituations must be finite and lie in \[0, 1\]"),
        (np.zeros((2, 1, 2)), [1.0, -0.5], r"habituations must be finite and lie in \[0, 1\]"),
        (np.zeros((2, 1, 2)), [1.0, np.inf], r"habituations must be finite and lie in \[0, 1\]"),
        (np.zeros((2, 1, 2)), [1.0] * 3, r"habs of shape \(3,\) are not one number or one per"),
        (np.zeros((2, 1, 2)), [[1.0]] * 2, r"habs of shape \(2, 1\) are not one number or one per"),
    ],
    ids=[
        "2-d", "no-input-dimension", "context-depth", "non-finite", "nan-habituation",
        "habituation-above-1", "habituation-below-0", "infinite-habituation",
        "habituations-too-long", "habituations-2-d",
    ],
)
def test_constructor_rejects_malformed_units(units, habs, message):
    with pytest.raises(ValueError, match=message):
        Network(K0, GROWING, units, habs)


def test_constructor_rejects_more_rows_than_n_max():
    hyper = HyperParams(num_contexts=0, alpha=(1.0,), n_max=2)
    with pytest.raises(RuntimeError, match="3 neurons exceed n_max 2"):
        Network(hyper, STATIC, np.zeros((3, 1, 2)))


# -- hyperparameter validation -----------------------------------------------------


def test_hyperparams_reference_defaults():
    hp = HyperParams()
    assert hp.insertion_threshold == 0.3
    assert hp.habituation_threshold == 0.1
    assert hp.tau_b == 0.3 and hp.tau_n == 0.1
    assert hp.kappa == 1.05
    assert hp.num_contexts == 2
    assert hp.alpha == (0.67, 0.24, 0.09)
    assert hp.beta == 0.7
    assert hp.eps_b == 0.5 and hp.eps_n == 0.005


@pytest.mark.parametrize(
    "kwargs",
    [
        {"insertion_threshold": 0.0},
        {"habituation_threshold": 1.0},
        {"tau_b": 0.0},
        {"kappa": 1.0},
        {"eps_b": 0.001},  # violates eps_n < eps_b
        {"beta": 1.0},
        {"num_contexts": 1},  # alpha length mismatch
        {"alpha": (0.5, -0.1, 0.1)},
        {"n_max": 1},
        pytest.param({"num_contexts": 2.0}, id="float-num-contexts"),
        pytest.param({"n_max": 20.0}, id="float-n-max"),
        pytest.param({"num_contexts": True, "alpha": (0.5, 0.5)}, id="bool-num-contexts"),
        pytest.param({"kappa": float("inf")}, id="infinite-kappa"),
        pytest.param({"tau_b": 10**400}, id="int-too-large-for-float"),
        pytest.param({"alpha": (0.67, float("inf"), 0.09)}, id="infinite-alpha"),
        pytest.param({"tau_n": True}, id="bool-tau-n"),
        pytest.param({"num_contexts": 0, "alpha": 0.5}, id="scalar-alpha"),
        pytest.param({"num_contexts": 0, "alpha": [1.0]}, id="list-alpha"),
    ],
)
def test_hyperparams_validation(kwargs):
    with pytest.raises(ValueError):
        HyperParams(**kwargs)


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.floats(1.001, 10.0),
    shares=st.tuples(st.floats(0.01, 0.999), st.floats(0.01, 0.999)),
    seed=st.integers(0, 2**32 - 1),
)
def test_habituation_floor_holds_under_iterated_updates(kappa, shares, seed):
    """Mixed winner and neighbor updates from [1 - 1/kappa, 1] never go
    below the derived floor."""
    tau_b, tau_n = (share / kappa for share in shares)
    hyper = HyperParams(tau_b=tau_b, tau_n=tau_n, kappa=kappa)
    floor = hyper.habituation_floor
    assert 0.0 < floor < 1.0 - 1.0 / kappa
    rng = np.random.default_rng(seed)
    fixed_point = 1.0 - 1.0 / kappa
    # from 1 (new units), from anywhere above, and already within rounding
    h = np.concatenate([
        np.ones(8),
        rng.uniform(fixed_point, 1.0, 24),
        fixed_point + np.spacing(fixed_point) * rng.integers(0, 64, 32),
    ])
    for _ in range(2000):
        h = habituate(h, np.where(rng.random(h.size) < 0.5, tau_b, tau_n), kappa)
        assert h.min() >= floor


def test_habituation_floor_is_zero_when_an_update_overshoots():
    assert HyperParams().habituation_floor == pytest.approx(1.0 - 1.0 / 1.05, abs=1e-12)
    assert HyperParams(tau_b=0.96, kappa=1.05).habituation_floor == 0.0
    assert HyperParams(tau_n=0.96, kappa=1.05).habituation_floor == 0.0


# -- determinism -------------------------------------------------------------------


def test_identical_streams_give_bit_identical_networks():
    rng = np.random.default_rng(5)
    stream = rng.normal(size=(300, 3))

    def run():
        hyper = HyperParams(num_contexts=1, alpha=(0.7, 0.3), n_max=20)
        net = init_growing(3, hyper, (stream[0], stream[1]))
        for i, x in enumerate(stream):
            if i % 25 == 0:
                net.reset_context()
            net.step(x)
        return net

    a, b = run(), run()
    assert a.num_neurons == b.num_neurons
    assert np.array_equal(a._units[: a.num_neurons], b._units[: b.num_neurons])
    assert np.array_equal(a._hab[: a.num_neurons], b._hab[: b.num_neurons])
    assert a.edges == b.edges
    assert a.prev_bmu == b.prev_bmu
