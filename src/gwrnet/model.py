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
by ``||u||^2_alpha - 2 u . (alpha * q)``, one matrix-vector product over the
units and a cached vector of their alpha-weighted squared norms. Every unit
whose screened value lies within a floating-point error bound of the
second-smallest one is then re-ranked with the full context-weighted distance.
Winners, runners-up and winner distances are bit-identical to a full scan of
that distance over all units, ties included.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

GROWING = "growing"
STATIC = "static"

_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_LARGEST = float(np.finfo(float).max)


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
        reals = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type in (float, "float")]
        reals += [("alpha", a) for a in self.alpha]
        for name, value in reals:
            # the exact int/float comparison also rejects ints too large for a float
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and abs(value) <= _LARGEST):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
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
        for name in ("num_contexts", "n_max"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
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


@dataclass
class MatchContext:
    """Per-sequence context scratchpad for read-only matching.

    Evaluation walks test sequences through the same matching rule as
    training but must not disturb the trained state; each evaluation sequence
    owns one of these. ``query`` row 0 is input scratch space, rows 1.. hold
    the context stack.
    """

    query: np.ndarray  # (num_contexts + 1, dim)
    prev_bmu: Optional[int] = None

    @property
    def context(self) -> np.ndarray:
        return self.query[1:]


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
        # _sqnorm[j] is unit j's alpha-weighted squared norm, kept in step
        # with _units; _sqmax bounds every _sqnorm value ever held and never
        # decreases. Both feed the screen in _nearest.
        self._sqnorm = np.zeros(0)
        self._sqmax = 0.0
        m = (k + 1) * dim
        self._screen_rel = 2.5 * (m + 4) * _UNIT_ROUNDOFF
        self._screen_abs = (m + 4) * _SMALLEST_NORMAL
        # eps and tau by position in an adapt's [winner] + neighbors
        self._learning = np.zeros((2, 0))
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
        habituation in [0, 1], finite units, num_neurons <= n_max, and cached
        norms equal to recomputed ones."""
        n = self.num_neurons
        problems = []
        if not 0 <= n <= self.hyper.n_max:
            problems.append(f"num_neurons {n} outside [0, {self.hyper.n_max}]")
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
        units = self._units[:n]
        if not np.isfinite(units).all():
            problems.append("non-finite weight or context")
        sqnorm = np.einsum("j,ijk,ijk->i", self._alpha, units, units)
        if not np.array_equal(self._sqnorm[:n], sqnorm):
            problems.append("cached unit norms are stale")
        elif n and not self._sqmax >= sqnorm.max():
            problems.append("norm bound is below a unit norm")
        if problems:
            raise RuntimeError("; ".join(problems))

    # -- matching ----------------------------------------------------------

    def _nearest(self, query: np.ndarray) -> tuple[int, int, float]:
        """Winner, runner-up and winner distance for a full [input, C_1..C_K]
        query; ties resolve to the smaller neuron id. Bit-identical to
        evaluating the einsum below over every unit."""
        # Screen, then re-rank exactly. Write A_i = ||u_i||^2_alpha,
        # Q = ||q||^2_alpha and P_i = u_i . (alpha * q), so the distance is
        # d_i = A_i - 2 P_i + Q; the screen computes g_i = A_i - 2 P_i, as Q is
        # the same for every row. With m = (K+1)*D terms, unit roundoff u and
        # alpha >= 0, the standard dot-product error bounds give per row
        #   |g_i - (d_i - Q)| <= (2m + 5) u (A_i + Q)   cached norm (m+1
        #       roundings), GEMV (m+1, doubled) and the final addition;
        #   |einsum_i - d_i| <= (2m + 6) u (A_i + Q)    as d_i <= 2 (A_i + Q).
        # Let p1, p2 be the rows with the two smallest g. The exact winner or
        # runner-up i is either one of them or has einsum_i <= einsum_p for
        # one of them, so g_i <= g_p + 2 (both bounds) <= g_(2) + eps with
        # eps = 10 (m + 4) u (M + Q) >= (8m + 22) u (M + Q) plus room for the
        # roundings of eps, Q and the cutoff, where M >= every A_i. The
        # (m + 4) * tiny term covers gradual underflow. Forming 4 (M + Q)
        # first makes eps infinite before any distance can overflow, and a
        # NaN cutoff keeps every row, so the re-rank then sees all units.
        # The candidates always include p1 and p2.
        n = self.num_neurons
        if n < 2:
            raise RuntimeError("matching needs at least two neurons")
        units = self._units[:n]
        weighted = (self._alpha_col * query).ravel()
        g = units.reshape(n, -1) @ weighted
        g *= -2.0
        g += self._sqnorm[:n]
        b = g.argmin()
        g_b = g[b]
        g[b] = np.inf
        bound = (self._sqmax + float(weighted @ query.ravel())) * 4.0
        cutoff = g[g.argmin()] + (bound * self._screen_rel + self._screen_abs)
        g[b] = g_b
        rows = np.flatnonzero(~(g > cutoff))
        diff = units[rows] - query
        d = np.einsum("j,ijk,ijk->i", self._alpha, diff, diff)
        w = d.argmin()
        d_b = float(d[w])
        d[w] = np.inf
        return int(rows[w]), int(rows[d.argmin()]), d_b

    def _store_norms(self, rows, units: np.ndarray) -> None:
        """Cache the norms of ``units``, the current contents of ``rows``
        (ids or a slice)."""
        sqnorm = np.einsum("j,ijk,ijk->i", self._alpha, units, units)
        self._sqnorm[rows] = sqnorm
        top = float(sqnorm.max())
        if not top <= self._sqmax:  # NaN also lands here and keeps every row
            self._sqmax = top

    def _advance_context(self, query: np.ndarray, prev_bmu: Optional[int]) -> None:
        """Write C_1..C_K into query rows 1.. from the previous winner; zero
        at sequence start."""
        if prev_bmu is None:
            query[1:] = 0.0
            return
        unit = self._units[prev_bmu]
        beta = self.hyper.beta
        # C_k(t) = beta*w_b + (1-beta)*c_{b,k-1} with c_{b,0} = w_b;
        # unit[0:K] is exactly [c_{b,0}, ..., c_{b,K-1}].
        query[1:] = beta * unit[0] + (1.0 - beta) * unit[: self.hyper.num_contexts]

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
        self._advance_context(self._query, self.prev_bmu)
        return self.global_context

    def reset_context(self) -> None:
        """Mark a sequence boundary: clear the context stack and the winner."""
        self._query[1:] = 0.0
        self.prev_bmu = None

    def new_match_context(self) -> MatchContext:
        return MatchContext(query=np.zeros((self.hyper.num_contexts + 1, self.dim)))

    def match(self, x: np.ndarray, ctx: MatchContext) -> tuple[int, int, float]:
        """Evaluation-mode matching: advances ctx, mutates no network state."""
        ctx.query[0] = self._check_input(x)
        self._advance_context(ctx.query, ctx.prev_bmu)
        b, s, d_b = self._nearest(ctx.query)
        ctx.prev_bmu = b
        return b, s, d_b

    # -- plasticity ----------------------------------------------------------

    def adapt(self, bmu_id: int, x: np.ndarray) -> list[int]:
        """Pull the winner and its neighbors toward the input and current
        context, then habituate them. Returns the touched ids."""
        self._check_id(bmu_id)
        self._query[0] = self._check_input(x)
        ids = [bmu_id] + sorted(self._adj[bmu_id])
        rows = np.array(ids)
        eps, tau = self._learning[:, : len(ids)]
        hab = self._hab[rows]
        units = self._units[rows]
        units += (eps * hab)[:, None, None] * (self._query - units)
        self._units[rows] = units
        self._store_norms(rows, units)
        self._hab[rows] = habituate(hab, tau, self.hyper.kappa)
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
            raise RuntimeError("capacity exhausted")
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
        for name in ("_units", "_hab", "_sqnorm"):
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:])
            new[:n] = old[:n]
            setattr(self, name, new)
        hy = self.hyper
        self._learning = np.empty((2, rows))
        self._learning[:, 0] = (hy.eps_b, hy.tau_b)
        self._learning[:, 1:] = [[hy.eps_n], [hy.tau_n]]

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
            self._advance_context(self._query, self.prev_bmu)
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
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (dim,):
            raise ValueError(f"seed input shape {vec.shape} does not match dimension {dim}")
        row[0] = vec
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
    if np.any(low > high):
        raise ValueError("bounds_low must not exceed bounds_high")
    net = Network(dim, hyper, STATIC, rng_seed=seed)
    rng = np.random.default_rng(seed)
    units = np.zeros((hyper.n_max, hyper.num_contexts + 1, dim))
    units[:, 0] = rng.uniform(low, high, size=(hyper.n_max, dim))
    net._append_units(units, 1.0)
    return net
