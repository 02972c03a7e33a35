"""Recurrent grow-when-required network with habituation-gated growth.

Each neuron stores a weight vector plus a stack of temporal context
descriptors. Matching blends the input-to-weight distance with distances
between the network's global context and the per-neuron descriptors, so the
winner depends on the recent input history, not just the current frame.

Two operating modes share the same learning dynamics:

* ``growing``: starts with two neurons and inserts a new one whenever the
  network activity falls below the insertion threshold while the winner is
  already strongly habituated, up to the capacity bound ``n_max``.
* ``static``: starts with ``n_max`` randomly initialized neurons and never
  inserts.

Transition counts and label histograms are bookkeeping side tables owned by
the caller and passed into :meth:`Network.step`.

Winner search is a screen plus an exact re-rank. The screen ranks every unit
by ``||u||^2_alpha - 2 u . (alpha * q)`` in float32: one matrix-vector product
over a float32 copy of the unit table, plus the float32 casts of the units'
alpha-weighted squared norms, computed in float64. These are the only derived
copies of the table: 4 * ((K+1) * dim + 1) bytes per unit beside it, and the
product reads half the bytes of a float64 one. Every unit whose screened value
lies within a floating-point error bound of the second-smallest one is then
re-ranked with the full context-weighted distance in float64. The bound covers
float32 rounding, underflow and any summation order, and the screen is skipped
when float32 could overflow, so winners, runners-up and winner distances are
bit-identical to a full scan of that distance over all units, ties included:
output bytes cannot move, only speed.

:meth:`Network.match` matches many sequences at once and changes nothing: it
takes one frame and the previous winner (-1 at sequence start) of each, builds
their queries with the training context rule, screens them all with one
float32 matrix product, unit rows against query columns, under the same error
bound, then re-ranks every candidate (sequence, unit) pair with one float64
einsum. The product runs in blocks of unit rows of at most 2^18 multiply-adds
(``_SCREEN_BLOCK`` says why). Its scratch is one float32 screen value per unit
and sequence, n * S * 4 bytes (180 KB at 300 units and 150 sequences).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

GROWING = "growing"
STATIC = "static"

_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_LARGEST = float(np.finfo(float).max)
_F32_UNIT_ROUNDOFF = float(np.finfo(np.float32).eps) / 2.0
_F32_SMALLEST_NORMAL = float(np.finfo(np.float32).tiny)
_F32_LARGEST = float(np.finfo(np.float32).max)
# a class's resolved annotations; resolving costs more than building a spec
_hints = functools.cache(get_type_hints)


def check_field_types(spec) -> None:
    """Raise ValueError for a field of the dataclass ``spec`` whose value
    breaks its annotation: ``int`` and ``bool`` need exactly that type (a bool
    is no int), ``float`` a finite real number, ``tuple[T, ...]`` a tuple
    whose entries each follow T's rule, and a dataclass an instance of it."""
    checks = [(f.name, _hints(type(spec))[f.name], getattr(spec, f.name)) for f in fields(spec)]
    for name, kind, value in checks:  # a tuple's entries join the list as it runs
        if get_origin(kind) is tuple:
            if not isinstance(value, tuple):
                raise ValueError(f"{name} must be a tuple, got {value!r}")
            checks += [(f"{name} entry", get_args(kind)[0], v) for v in value]
        elif is_dataclass(kind) and not isinstance(value, kind):
            raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if kind is int and type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
        if kind is bool and type(value) is not bool:
            raise ValueError(f"{name} must be a bool, got {value!r}")
        # the exact int/float comparison also rejects ints too large for a float
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if kind is float and not (real and abs(value) <= _LARGEST):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class HyperParams:
    """Training constants for both modes.

    ``alpha`` holds the distance weights for the input term followed by one
    weight per context depth, so it must have ``num_contexts + 1`` entries.
    Defaults are the reference configuration used throughout the tests.
    """

    insertion_threshold: float = 0.3
    habituation_threshold: float = 0.1
    tau_b: float = 0.3
    tau_n: float = 0.1
    kappa: float = 1.05
    eps_b: float = 0.5
    eps_n: float = 0.005
    beta: float = 0.7
    num_contexts: int = 2
    alpha: tuple[float, ...] = (0.67, 0.24, 0.09)
    n_max: int = 2500

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.insertion_threshold < 1.0:
            raise ValueError("insertion_threshold must lie in (0, 1)")
        if not 0.0 < self.habituation_threshold < 1.0:
            raise ValueError("habituation_threshold must lie in (0, 1)")
        if self.tau_b <= 0.0 or self.tau_n <= 0.0:
            raise ValueError("tau_b and tau_n must be positive")
        if self.kappa <= 1.0:
            raise ValueError("kappa must exceed 1")
        if not (0.0 < self.eps_n < self.eps_b < 1.0):
            raise ValueError("need 0 < eps_n < eps_b < 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.num_contexts < 0:
            raise ValueError("num_contexts must be nonnegative")
        if len(self.alpha) != self.num_contexts + 1:
            raise ValueError(
                f"alpha needs {self.num_contexts + 1} entries, got {len(self.alpha)}"
            )
        if any(a < 0.0 for a in self.alpha):
            raise ValueError("alpha entries must be nonnegative")
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")

    @property
    def habituation_floor(self) -> float:
        """Lowest habituation a network under these constants can hold.

        With p = tau * kappa < 1 the exact update maps h to
        f + (1 - p) * (h - f), f = 1 - 1/kappa, so habituations that start
        at or above f (new units start at 1) stay there. The rounded update
        is off by at most E = 6u (u the unit roundoff): five roundings of
        values no larger than 1, plus slack for second-order terms. A
        deviation below f shrinks by 1 - p per update and gains at most E,
        so it stays within E / p for the smaller p; the computed f and the
        subtraction below add at most 3u. With p >= 1 for either tau the
        update overshoots f and only the [0, 1] clamp bounds it: 0.
        """
        if self.kappa * max(self.tau_b, self.tau_n) >= 1.0:
            return 0.0
        p = self.kappa * min(self.tau_b, self.tau_n)
        return (1.0 - 1.0 / self.kappa) - (6.0 / p + 3.0) * _UNIT_ROUNDOFF


@dataclass
class Neuron:
    """Read-only view of one unit: weight, context stack, habituation."""

    id: int
    weight: np.ndarray
    contexts: np.ndarray  # (num_contexts, dim)
    habituation: float


@dataclass
class StepOutcome:
    """What one learning iteration did."""

    bmu_id: int
    second_id: int
    distance: float
    activity: float
    inserted: Optional[int] = None


def activity(d_b: float) -> float:
    """Network activity for a winner distance: exp(-d_b), in (0, 1]."""
    if d_b < 0.0:
        raise ValueError("winner distance must be nonnegative")
    return math.exp(-d_b)


def habituate(h, tau, kappa):
    """One habituation update, clamped to [0, 1]; elementwise on arrays.

    The update h + tau*kappa*(1-h) - tau decays h monotonically toward the
    fixed point 1 - 1/kappa when starting above it.
    """
    return np.minimum(np.maximum(h + tau * kappa * (1.0 - h) - tau, 0.0), 1.0)


# multiply-adds per block of match's screen product, small enough that
# OpenBLAS keeps it on one thread: with default threads, `--parallel-trials 2`
# on two cores took 1.3-2.2 s blocked and 2.9-3.8 s unblocked (growing +
# replay, n_max 300), as the workers' BLAS threads oversubscribed the cores
_SCREEN_BLOCK = 2**18


class Network:
    """Dynamic neuron set with undirected topology and global temporal context.

    Construct through :func:`init_growing` or :func:`init_static`. Neuron ids
    are dense integers assigned in creation order and never reused (nothing
    is ever removed), so id k lives in storage row k.
    """

    def __init__(self, dim: int, hyper: HyperParams, mode: str, rng_seed: int = 0):
        if mode not in (GROWING, STATIC):
            raise ValueError(f"unknown mode {mode!r}")
        if dim < 1:
            raise ValueError("input dimension must be positive")
        self.dim = dim
        self.hyper = hyper
        self.mode = mode
        self.rng_seed = rng_seed
        self.step_count = 0
        self.prev_bmu: Optional[int] = None
        k = hyper.num_contexts
        # Row j of _units is neuron j as [weight, context_1, ..., context_K];
        # _query holds [input, C_1, ..., C_K] in the same layout so matching,
        # adaptation and insertion are single fused array operations. The
        # per-neuron arrays start empty and _append_units grows them.
        self._units = np.zeros((0, k + 1, dim))
        self._hab = np.zeros(0)
        self._query = np.zeros((k + 1, dim))
        self._alpha = np.asarray(hyper.alpha, dtype=float)
        self._alpha_col = self._alpha[:, None]
        # _units32 and _sqnorm32 are the float32 casts of _units and of its
        # alpha-weighted squared norms; _sqmax bounds every norm ever held, never
        # decreases, and is inf once a cast overflowed. All feed the screens.
        self._units32 = np.zeros((0, k + 1, dim), dtype=np.float32)
        self._sqnorm32 = np.zeros(0, dtype=np.float32)
        self._sqmax = 0.0
        m = (k + 1) * dim
        # screen scratch: -2 * alpha * query in float32
        self._query32 = np.zeros(m, dtype=np.float32)
        a_max = max(hyper.alpha)
        a_min = min((a for a in hyper.alpha if a > 0.0), default=math.inf)
        v, lam, top = _F32_UNIT_ROUNDOFF, _F32_SMALLEST_NORMAL, _F32_LARGEST
        self._screen_rel = 2.5 * (m + 8) * v
        self._screen_abs = (
            2.5 * (m * lam * lam / v * (0.5 / a_min + a_max) + (3 * m + 2) * lam)
            + (m + 4) * _SMALLEST_NORMAL
        )
        # the largest M + Q for which every float32 value of the screen is finite
        self._screen_gate = top / 8 if 2 * a_max <= top else top * top / (16 * a_max)
        if (m + 8) * v > 0.125 or self._screen_abs > top / 8:
            self._screen_gate = -1.0
        # a unit whose alpha-weighted norm is at most this casts to float32,
        # norm included, without overflow; with a zero alpha entry the norm
        # bounds nothing
        self._cast_safe = min(0.25 * a_min * top * top, top / 8) if min(hyper.alpha) > 0.0 else -1.0
        # eps, tau and tau * kappa by position in an adapt's [winner] + neighbors
        self._learning = np.zeros((3, 0))
        self._adj: dict[int, set[int]] = {}
        self.num_neurons = 0
        # the frame _iterate has validated; the public methods it calls
        # recognise this exact object and skip validating it again
        self._frame: Optional[np.ndarray] = None

    # -- introspection ----------------------------------------------------

    @property
    def neuron_ids(self) -> range:
        return range(self.num_neurons)

    @property
    def global_context(self) -> np.ndarray:
        """Current context stack C_1..C_K, shape (num_contexts, dim)."""
        return self._query[1:].copy()

    @global_context.setter
    def global_context(self, value) -> None:
        self._query[1:] = np.asarray(value, dtype=float).reshape(
            self.hyper.num_contexts, self.dim
        )

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (i, j) for i, nbrs in self._adj.items() for j in nbrs if i < j
        )

    def has_neuron(self, neuron_id: int) -> bool:
        return 0 <= neuron_id < self.num_neurons

    def neuron(self, neuron_id: int) -> Neuron:
        self._check_id(neuron_id)
        return Neuron(
            id=neuron_id,
            weight=self._units[neuron_id, 0].copy(),
            contexts=self._units[neuron_id, 1:].copy(),
            habituation=float(self._hab[neuron_id]),
        )

    def unit_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of every neuron's [weight, context_1..K] rows,
        shape (num_neurons, num_contexts + 1, dim), and of their
        habituations; valid until the network changes."""
        n = self.num_neurons
        units, habs = self._units[:n], self._hab[:n]
        units.flags.writeable = habs.flags.writeable = False
        return units, habs

    def neighbors(self, neuron_id: int) -> list[int]:
        self._check_id(neuron_id)
        return sorted(self._adj[neuron_id])

    def has_edge(self, i: int, j: int) -> bool:
        return self.has_neuron(i) and j in self._adj[i]

    def _check_id(self, neuron_id: int) -> None:
        if not self.has_neuron(neuron_id):
            raise KeyError(f"no neuron with id {neuron_id}")

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        if x is self._frame and x is not None:
            return x
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"input shape {x.shape} does not match dimension {self.dim}")
        if not np.isfinite(x).all():
            raise ValueError("input frame has non-finite values")
        return x

    def check_invariants(self) -> None:
        """Raise RuntimeError naming every broken structural invariant:
        symmetric adjacency without self-edges over exactly the neuron ids,
        habituation in [0, 1] and at or above ``hyper.habituation_floor``,
        finite units, num_neurons <= n_max, prev_bmu None or a neuron id, and
        the float32 table equal to the cast of the units and their norms, under
        a norm bound that is infinite if any cast overflowed."""
        n = self.num_neurons
        problems = []
        if not 0 <= n <= self.hyper.n_max:
            problems.append(f"num_neurons {n} outside [0, {self.hyper.n_max}]")
        if self.prev_bmu is not None and not self.has_neuron(self.prev_bmu):
            problems.append(f"prev_bmu {self.prev_bmu} names no neuron")
        if sorted(self._adj) != list(range(n)):
            problems.append("adjacency is not keyed by the neuron ids")
        for i, nbrs in self._adj.items():
            if i in nbrs:
                problems.append(f"self-edge at neuron {i}")
            for j in nbrs:
                if i not in self._adj.get(j, ()):
                    problems.append(f"edge ({i}, {j}) is not symmetric")
        hab = self._hab[:n]
        if not ((hab >= 0.0) & (hab <= 1.0)).all():
            problems.append("habituation outside [0, 1]")
        elif not (hab >= self.hyper.habituation_floor).all():
            problems.append("habituation below the floor 1 - 1/kappa")
        units = self._units[:n]
        if not np.isfinite(units).all():
            problems.append("non-finite weight or context")
        sqnorm = np.einsum("j,ijk,ijk->i", self._alpha, units, units)
        if n and not self._sqmax >= sqnorm.max():
            problems.append("norm bound is below a unit norm")
        with np.errstate(over="ignore"):
            units32 = units.astype(np.float32)
            sqnorm32 = sqnorm.astype(np.float32)
        if not (
            np.array_equal(self._units32[:n], units32, equal_nan=True)
            and np.array_equal(self._sqnorm32[:n], sqnorm32, equal_nan=True)
        ):
            problems.append("float32 screen table is stale")
        elif self._sqmax < math.inf and not np.isfinite(units32).all():
            problems.append("norm bound is finite over an overflowed float32 table")
        if problems:
            raise RuntimeError("; ".join(problems))

    # -- matching ----------------------------------------------------------

    def _screen_cutoff(self, second, scale):
        """Largest screened value the exact winner or runner-up of a query
        can have, from the second-smallest screened value and M + Q =
        ``scale``; elementwise, one query per entry. Only a query whose scale
        is at most ``_screen_gate`` may be screened."""
        # Write A_i = ||u_i||^2_alpha, Q = ||q||^2_alpha and
        # P_i = u_i . (alpha * q), so the distance is d_i = A_i - 2 P_i + Q.
        # The screen computes g_i = fl32(A_i) + G_i in float32, G_i the
        # float32 product of the float32 table with fl32(-2 alpha * q); Q is
        # the same for every row and left out. Let
        # m = (K+1)*D terms, v = 2^-24 and lam = 2^-126 (float32 roundoff and
        # smallest normal), a_min and a_max the smallest positive and the
        # largest alpha entry, S_i = sum alpha_t |u_t q_t| <= (A_i + Q) / 2.
        # Bounds on the error of g_i against A_i - 2 P_i:
        # * a cast to float32 is off by at most v |x| + lam, lam covering
        #   gradual underflow and subnormals flushed to zero. The casts of u
        #   and -2 alpha q move the exact dot product by (2v + v^2) 2 S_i, plus
        #   lam (1 + v) times the sums of |u_t| and |2 alpha_t q_t| over
        #   alpha_t > 0 (terms of zero alpha are exactly 0), plus m lam^2;
        # * float32 accumulation in any order, fused or not, adds
        #   gamma_m = m v / (1 - m v) of the absolute sum, plus lam for each of
        #   the at most 2m results that underflow;
        # * by Cauchy-Schwarz and 2 sqrt(xy) <= x + y, lam sum |u_t| <=
        #   lam sqrt(m A_i / a_min) <= (v A_i + m lam^2 / (v a_min)) / 2 and
        #   lam sum |2 alpha_t q_t| <= v Q + m lam^2 a_max / v;
        # * casting A_i and adding it add v A_i + lam and v (2 A_i + Q);
        # * the float64 roundings (alpha * q, the computed A_i) add a few
        #   (m + 2) 2^-53 (A_i + Q), far below v (A_i + Q).
        # With (m + 8) v <= 1/8 the sum is e_i <= (8/7)(m + 6) v (A_i + Q) + E,
        # E = (m lam^2 / v)(1 / (2 a_min) + a_max)(1 + v) + (2m + 2) lam. The
        # re-rank einsum is off by r_i <= (2m + 6) 2^-53 (A_i + Q). Let p1, p2
        # be the rows with the two smallest g. The exact winner or runner-up i
        # is either one of them or has einsum_i <= einsum_p for one of them,
        # so g_i <= g_p + e_i + e_p + r_i + r_p <= g_(2) + 2 (e + r), M >= every
        # A_i. The comparison rounds the cutoff to float32, losing at most
        # v (|g_(2)| + eps) + lam with |g_(2)| <= 2.01 (M + Q). So
        # eps = 2.5 (m + 8) v (M + Q) + 2.5 E + (m + 4) * tiny suffices: 2.5
        # leaves room for the float64 terms and the roundings of eps, Q and the
        # cutoff, and the last term covers float64 underflow. The candidates
        # always include p1 and p2. The screen runs only while M + Q is at
        # most _screen_gate = min(F / 8, F^2 / (16 a_max)), F the float32
        # maximum, and eps has an absolute term of at most F / 8: then
        # |2 alpha_t q_t| <= 2 sqrt(a_max Q) <= F / 2, _store_norms keeps the
        # table finite (or M infinite), and every product, partial sum, g_i
        # and the cutoff stay below F, so no float32 value overflows.
        # Otherwise, NaN included, every row is re-ranked.
        return second + (scale * self._screen_rel + self._screen_abs)

    def _nearest(self, query: np.ndarray) -> tuple[int, int, float]:
        """Winner, runner-up and winner distance for a full [input, C_1..C_K]
        query; ties resolve to the smaller neuron id. Bit-identical to
        evaluating the einsum below over every unit."""
        # screen in float32, then re-rank exactly every unit within the
        # bound of _screen_cutoff
        n = self.num_neurons
        if n < 2:
            raise RuntimeError("matching needs at least two neurons")
        units = self._units[:n]
        weighted = self._alpha_col * query
        scale = self._sqmax + float(np.vdot(weighted, query))
        if scale <= self._screen_gate:
            np.multiply(weighted.ravel(), -2.0, out=self._query32)
            g = self._units32[:n].reshape(n, -1) @ self._query32
            g += self._sqnorm32[:n]
            b = g.argmin()
            g_b = g[b]
            g[b] = np.inf
            cutoff = self._screen_cutoff(float(g.min()), scale)
            g[b] = g_b
            rows = (g <= cutoff).nonzero()[0]
        else:
            rows = np.arange(n)
        diff = units.take(rows, axis=0) - query
        d = np.einsum("j,ijk,ijk->i", self._alpha, diff, diff)
        w = d.argmin()
        d_b = float(d[w])
        d[w] = np.inf
        s = d.argmin()
        # past an overflow every distance but the winner's may be inf, and the
        # runner-up search would land on the winner again
        if not (d_b < np.inf and d[s] < np.inf):
            raise ValueError("matching distances overflow: feature values or alpha are too large")
        return int(rows[w]), int(rows[s]), d_b

    def _nearest_many(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Winners, runners-up and winner distances of a stack of
        [input, C_1..C_K] queries, shape (a, K+1, dim); entry i equals
        ``_nearest(queries[i])`` bit for bit."""
        # One float32 product screens every query at once, in blocks of unit
        # rows small enough for one BLAS thread; each query keeps the units
        # within its own _screen_cutoff, or every unit past _screen_gate. One
        # einsum re-ranks every candidate (query, unit) pair, and one lexsort
        # orders each query's candidates by distance. nonzero lists each
        # query's units in ascending order and lexsort is stable, so ties go
        # to the smaller id.
        n = self.num_neurons
        if n < 2:
            raise RuntimeError("matching needs at least two neurons")
        a = len(queries)
        weighted = self._alpha_col * queries
        scale = self._sqmax + np.einsum("ijk,ijk->i", weighted, queries)
        screened = (scale <= self._screen_gate).nonzero()[0]
        candidates = np.ones((a, n), dtype=bool)
        if len(screened):
            q32 = (-2.0 * weighted.take(screened, axis=0)).reshape(len(screened), -1)
            q32 = q32.astype(np.float32)
            units32 = self._units32[:n].reshape(n, -1)
            g = np.empty((len(screened), n), dtype=np.float32)
            block = max(1, _SCREEN_BLOCK // q32.size)
            for i in range(0, n, block):
                np.matmul(q32, units32[i : i + block].T, out=g[:, i : i + block])
            g += self._sqnorm32[:n]
            each = np.arange(len(screened))
            b = g.argmin(axis=1)
            g_b = g[each, b]
            g[each, b] = np.inf
            cutoff = self._screen_cutoff(g.min(axis=1).astype(float), scale.take(screened))
            g[each, b] = g_b
            candidates[screened] = g <= cutoff.astype(np.float32)[:, None]
        q_ids, rows = candidates.nonzero()
        diff = self._units.take(rows, axis=0) - queries.take(q_ids, axis=0)
        d = np.einsum("j,ijk,ijk->i", self._alpha, diff, diff)
        order = np.lexsort((d, q_ids))
        per_query = np.bincount(q_ids, minlength=a)
        first = np.cumsum(per_query) - per_query
        w, s = order[first], order[first + 1]
        # as in _nearest: a NaN distance or an infinite runner-up is an overflow
        if np.isnan(d).any() or not (d[s] < np.inf).all():
            raise ValueError("matching distances overflow: feature values or alpha are too large")
        return rows[w], rows[s], d[w]

    def _store_norms(self, rows, units: np.ndarray) -> None:
        """Cache the float32 casts of ``units``, the current contents of
        ``rows`` (ids or a slice), and of their norms."""
        sqnorm = np.einsum("j,ijk,ijk->i", self._alpha, units, units)
        top = float(sqnorm.max())
        if top <= self._cast_safe:
            self._units32[rows] = units
            self._sqnorm32[rows] = sqnorm
        else:
            # entries past the float32 maximum cast to inf; an infinite norm
            # bound then keeps the screen off for good
            with np.errstate(over="ignore"):
                self._units32[rows] = units
                self._sqnorm32[rows] = sqnorm
            if not np.isfinite(self._units32[rows]).all():
                top = math.inf
        if not top <= self._sqmax:  # NaN also lands here and keeps every row
            self._sqmax = top

    def _advance_context(self) -> None:
        """Write C_1..C_K into _query rows 1.. from prev_bmu; zero at sequence
        start. ``match`` applies the same operations to a stack of queries."""
        contexts = self._query[1:]
        if self.prev_bmu is None:
            contexts[...] = 0.0
            return
        unit = self._units[self.prev_bmu]
        beta = self.hyper.beta
        # C_k(t) = beta*w_b + (1-beta)*c_{b,k-1} with c_{b,0} = w_b;
        # unit[0:K] is exactly [c_{b,0}, ..., c_{b,K-1}].
        np.multiply(unit[: self.hyper.num_contexts], 1.0 - beta, out=contexts)
        contexts += beta * unit[0]

    def distance(self, neuron_id: int, x: np.ndarray) -> float:
        """Context-weighted squared distance between a neuron and an input."""
        self._check_id(neuron_id)
        x = self._check_input(x)
        self._query[0] = x
        diff = self._units[neuron_id] - self._query
        return float(np.einsum("j,jk,jk->", self._alpha, diff, diff))

    def find_bmu(self, x: np.ndarray) -> tuple[int, int, float]:
        """Best and second-best matching unit under the current context.

        Ties resolve to the smaller neuron id. Requires at least two neurons.
        """
        self._query[0] = self._check_input(x)
        return self._nearest(self._query)

    def update_global_context(self) -> np.ndarray:
        """Advance C_1..C_K from the previous winner; zero at sequence start."""
        self._advance_context()
        return self.global_context

    def reset_context(self) -> None:
        """Mark a sequence boundary: clear the context stack and the winner."""
        self._query[1:] = 0.0
        self.prev_bmu = None

    def match(
        self, frames: np.ndarray, prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluation-mode matching of ``a`` sequences at once: ``frames``
        (a, dim) holds each sequence's next frame and ``prev`` (a,) its
        previous winner, -1 at sequence start. Returns their winners, runners-up and
        winner distances as arrays, each equal to what training-mode matching
        gives for that sequence's query; changes neither the network nor
        ``prev``."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 2 or frames.shape[1] != self.dim:
            raise ValueError(f"frames of shape {frames.shape} do not have dimension {self.dim}")
        if not np.isfinite(frames).all():
            raise ValueError("input frame has non-finite values")
        prev = np.asarray(prev)
        if not (
            prev.shape == (len(frames),)
            and prev.dtype.kind in "iu"
            and ((prev >= -1) & (prev < self.num_neurons)).all()
        ):
            raise ValueError(f"prev must hold {len(frames)} neuron ids or -1, got {prev!r}")
        # _advance_context's elementwise operations, one sequence per row
        started = prev >= 0
        unit = self._units.take(prev[started], axis=0)
        contexts = unit[:, : self.hyper.num_contexts] * (1.0 - self.hyper.beta)
        contexts += self.hyper.beta * unit[:, :1]
        query = np.zeros((len(frames), self.hyper.num_contexts + 1, self.dim))
        query[started, 1:] = contexts
        query[:, 0] = frames
        return self._nearest_many(query)

    # -- plasticity ----------------------------------------------------------

    def adapt(self, bmu_id: int, x: np.ndarray) -> list[int]:
        """Pull the winner and its neighbors toward the input and current
        context, then habituate them. Returns the touched ids."""
        self._check_id(bmu_id)
        self._query[0] = self._check_input(x)
        ids = [bmu_id] + sorted(self._adj[bmu_id])
        rows = np.array(ids)
        eps, tau, tau_kappa = self._learning[:, : len(ids)]
        hab = self._hab.take(rows)
        units = self._units.take(rows, axis=0)
        pull = self._query - units
        pull *= (eps * hab)[:, None, None]
        units += pull
        self._units[rows] = units
        self._store_norms(rows, units)
        # habituate(hab, tau, kappa) in place, the same roundings in the same order
        update = 1.0 - hab
        update *= tau_kappa
        update += hab
        update -= tau
        np.maximum(update, 0.0, out=update)
        np.minimum(update, 1.0, out=update)
        self._hab[rows] = update
        return ids

    def connect(self, i: int, j: int) -> None:
        """Ensure the undirected edge {i, j} exists. Self-edges are rejected."""
        if i == j:
            raise ValueError("self-edges are not allowed")
        self._check_id(i)
        self._check_id(j)
        self._adj[i].add(j)
        self._adj[j].add(i)

    def _disconnect(self, i: int, j: int) -> None:
        self._adj[i].discard(j)
        self._adj[j].discard(i)

    def maybe_insert(
        self, x: np.ndarray, bmu_id: int, second_id: int, act: float
    ) -> Optional[int]:
        """Insert a neuron halfway between winner and input when the activity
        and habituation gates both pass and capacity remains; rewires the
        winner pair through the new unit. Returns the new id, or None."""
        self._check_id(bmu_id)
        self._check_id(second_id)
        if bmu_id == second_id:
            raise ValueError("winner and runner-up must be different neurons")
        x = self._check_input(x)
        if self.mode != GROWING:
            return None
        hy = self.hyper
        if act >= hy.insertion_threshold:
            return None
        if self._hab[bmu_id] >= hy.habituation_threshold:
            return None
        if self.num_neurons >= hy.n_max:
            return None
        self._query[0] = x
        unit = 0.5 * (self._units[bmu_id] + self._query)
        (new_id,) = self._append_units(unit[None], 1.0)
        self.connect(new_id, bmu_id)
        self.connect(new_id, second_id)
        self._disconnect(bmu_id, second_id)
        return new_id

    def _append_units(self, units: np.ndarray, habs) -> range:
        """Append unconnected neurons from (count, num_contexts + 1, dim) rows
        [weight, context_1..K] and their habituations; returns the new ids."""
        units = np.asarray(units, dtype=float)
        if units.ndim != 3 or units.shape[1:] != self._units.shape[1:]:
            raise ValueError(
                f"unit rows of shape {units.shape[1:]} do not match {self._units.shape[1:]}"
            )
        start = self.num_neurons
        end = start + units.shape[0]
        if end > self.hyper.n_max:
            raise RuntimeError(f"{end} neurons exceed n_max {self.hyper.n_max}")
        if end > len(self._hab):
            self._grow_storage(end)
        self._units[start:end] = units
        self._hab[start:end] = habs
        for new_id in range(start, end):
            self._adj[new_id] = set()
        self.num_neurons = end
        if end > start:
            self._store_norms(slice(start, end), self._units[start:end])
        return range(start, end)

    def _grow_storage(self, end: int) -> None:
        """Reallocate the per-neuron arrays to hold at least ``end`` rows,
        keeping the existing neurons. The row count at least doubles, up to
        n_max, so memory follows the network's size, not its declared n_max."""
        rows = min(self.hyper.n_max, max(end, 2 * len(self._hab)))
        n = self.num_neurons
        for name in ("_units", "_hab", "_units32", "_sqnorm32"):
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        hy = self.hyper
        self._learning = np.empty((3, rows))
        self._learning[:, 0] = (hy.eps_b, hy.tau_b, hy.tau_b * hy.kappa)
        self._learning[:, 1:] = [[hy.eps_n], [hy.tau_n], [hy.tau_n * hy.kappa]]

    def _append_neuron(
        self, weight: np.ndarray, contexts: np.ndarray, hab: float
    ) -> int:
        unit = np.empty((1,) + self._units.shape[1:])
        unit[0, 0] = weight
        unit[0, 1:] = contexts
        return self._append_units(unit, hab)[0]

    # -- learning iterations --------------------------------------------------

    def step(self, x, label=None, transitions=None, label_counts=None) -> StepOutcome:
        """One full learning iteration on a labeled input frame.

        Order: context update, matching, activity, transition recording,
        insertion attempt (growing mode), otherwise adaptation plus winner
        pair wiring. The label is credited to the inserted neuron when one is
        created, else to the winner. ``transitions`` and ``label_counts`` are
        optional side tables.
        """
        return self._iterate(x, label, transitions, label_counts, replay=False)

    def replay_step(self, x, label=None, label_counts=None) -> StepOutcome:
        """Consolidation iteration for replayed patterns: same dynamics with
        insertion disabled, no transition recording, and replay-attributed
        label credit."""
        return self._iterate(x, label, None, label_counts, replay=True)

    def _iterate(self, x, label, transitions, label_counts, replay: bool) -> StepOutcome:
        x = self._frame = self._check_input(x)
        try:
            self._advance_context()
            bmu_id, second_id, d_b = self.find_bmu(x)
            act = activity(d_b)
            if transitions is not None and self.prev_bmu is not None:
                transitions.record(self.prev_bmu, bmu_id)
            inserted = None
            if not replay:
                inserted = self.maybe_insert(x, bmu_id, second_id, act)
            if inserted is None:
                self.adapt(bmu_id, x)
                self.connect(bmu_id, second_id)
        finally:
            self._frame = None
        if label_counts is not None and label is not None:
            credit = bmu_id if inserted is None else inserted
            label_counts.record(credit, label, replay=replay)
        self.prev_bmu = bmu_id
        self.step_count += 1
        return StepOutcome(
            bmu_id=bmu_id,
            second_id=second_id,
            distance=d_b,
            activity=act,
            inserted=inserted,
        )


def init_growing(dim: int, hyper: HyperParams, first_two_inputs) -> Network:
    """Growing-mode network seeded with two neurons copying the given inputs."""
    a, b = first_two_inputs
    net = Network(dim, hyper, GROWING)
    units = np.zeros((2, hyper.num_contexts + 1, dim))
    for row, vec in zip(units, (a, b)):
        row[0] = net._check_input(vec)
    net._append_units(units, 1.0)
    return net


def init_static(
    dim: int,
    hyper: HyperParams,
    bounds_low,
    bounds_high,
    seed: int,
) -> Network:
    """Static-mode network with n_max neurons drawn uniformly per dimension."""
    low = np.broadcast_to(np.asarray(bounds_low, dtype=float), (dim,))
    high = np.broadcast_to(np.asarray(bounds_high, dtype=float), (dim,))
    # NaN, infinite bounds and a range past the float maximum all show here
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(high - low).all()
    if not finite:
        raise ValueError("bounds and their range must be finite")
    if np.any(low > high):
        raise ValueError("bounds_low must not exceed bounds_high")
    net = Network(dim, hyper, STATIC, rng_seed=seed)
    rng = np.random.default_rng(seed)
    units = np.zeros((hyper.n_max, hyper.num_contexts + 1, dim))
    units[:, 0] = rng.uniform(low, high, size=(hyper.n_max, dim))
    net._append_units(units, 1.0)
    return net
