"""Fisher information diagnostics for small networks.

A layer's Fisher block is E[vec(delta s^T) vec(delta s^T)^T], where delta
is the loss gradient at the layer's pre-activation, s is the layer's input
signal as the forward trace's ``signals`` holds it (previous activation in
the canonical parametrization, the whitened activation in the whitened
one), and vec flattens by rows. The expectation
over labels is taken exactly by enumerating the output classes weighted by
the model's own predictive distribution; the expectation over inputs is the
empirical mean. Both forms read a layer's per-example output Fisher as
weighted delta rows (``fisher_rows``): one row per class, or a single
row for a two-class head, built at the output and backpropagated once. The
factorized form assumes delta and s independent and keeps only the two
covariance factors; its Kronecker product uses the row-major vec convention, so
F[km, ln] = delta_cov[k, l] * act_cov[m, n]. Either form builds its dense
block only when its ``matrix`` is read; an exact block's ``save`` streams
it to disk without building it. Off-block-diagonal
(cross-layer) terms are never materialized. A conditioning report forwards
its inputs once and backprops each Fisher row once (a ``ClassSweep``), and
every layer's block reads its deltas from that one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, net
from .errors import ConsistencyError, DegenerateSpectrumError, FisherSizeError

MAX_BLOCK = 2000
TILE_COLUMNS = 128  # width of the G column blocks an exact block is built from


@dataclass
class KroneckerFactors:
    delta_cov: np.ndarray  # E[delta delta^T], (N_i, N_i)
    act_cov: np.ndarray  # E[s s^T] uncentered, (N_{i-1}, N_{i-1})


@dataclass
class StackedG:
    """What an exact block is built from: F = G^T G / B, where G stacks the
    rows sqrt(w_rb) vec(delta_rb s_b^T) of every pair r of ``fisher_rows``
    and example b, B rows for a two-class head and C B for C classes.

    G is never built whole: its column block for output units [k0, k1) is
    sqrt(w_r) delta_r[:, k0:k1] (x) s, about ``TILE_COLUMNS`` wide, built
    when a tile needs it. F is written one row of tiles at a time. The
    diagonal tile is the same-buffer product G_a^T G_a, which numpy runs as
    SYRK; a tile right of it is G_a^T G_c, and a tile left of it is
    rebuilt as (G_c^T G_a)^T, the operands in the order of the earlier row
    that wrote its transpose, so F is exactly symmetric."""

    scaled: list  # per pair r, sqrt(w_r) * delta_r, (B, N_i)
    signal: np.ndarray  # (B, N_{i-1})

    @property
    def size(self):
        return self.scaled[0].shape[1] * self.signal.shape[1]

    def _blocks(self):
        """F's index ranges of G's column blocks."""
        n_in, n_out = self.signal.shape[1], self.scaled[0].shape[1]
        units = max(1, TILE_COLUMNS // n_in)
        return [slice(k0 * n_in, min(k0 + units, n_out) * n_in)
                for k0 in range(0, n_out, units)]

    def _columns(self, cols, buffer):
        """G's columns ``cols``, one of ``_blocks()``, written into ``buffer``."""
        b, n_in = self.signal.shape
        width = cols.stop - cols.start
        g = buffer[: len(self.scaled) * b * width].reshape(len(self.scaled), b, width)
        for g_c, d in zip(g, self.scaled):
            np.einsum("bi,bj->bij", d[:, cols.start // n_in : cols.stop // n_in], self.signal,
                      out=g_c.reshape(b, -1, n_in))
        return g.reshape(-1, width)

    def _tile_rows(self, row_of):
        """Write each row of tiles of F into ``row_of(rows)``, a
        (len(rows), size) array, and yield that array."""
        blocks = self._blocks()
        b = self.signal.shape[0]
        width = blocks[0].stop - blocks[0].start
        buffers = np.empty((2, len(self.scaled) * b * width))  # for G_a and G_c
        for j, rows in enumerate(blocks):
            out = row_of(rows)
            g_a = self._columns(rows, buffers[0])
            out[:, rows] = g_a.T @ g_a
            for cols in blocks[j + 1 :]:
                out[:, cols] = g_a.T @ self._columns(cols, buffers[1])
            for cols in blocks[:j]:
                out[:, cols] = (self._columns(cols, buffers[1]).T @ g_a).T
            out /= b
            yield out

    def matrix(self) -> np.ndarray:
        """The dense block, each row of tiles written in place."""
        f = np.empty((self.size, self.size))
        for _ in self._tile_rows(lambda rows: f[rows]):
            pass
        return f

    def save(self, path):
        """Write to ``path`` the bytes ``np.save`` writes for
        ``self.matrix()``, holding one row of tiles instead of the block."""
        blocks = self._blocks()
        row = np.empty((blocks[0].stop - blocks[0].start, self.size))
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (self.size, self.size)})
            for out in self._tile_rows(lambda rows: row[: rows.stop - rows.start]):
                out.tofile(fh)


@dataclass
class FisherBlock:
    layer_index: int
    kind: str  # "exact" | "factorized"
    _matrix: np.ndarray | None = field(default=None, repr=False)
    factors: KroneckerFactors | None = None
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)
    stacked: StackedG | None = field(default=None, repr=False)  # of an exact block

    @property
    def matrix(self) -> np.ndarray | None:
        """The dense block, built on first read. An exact block builds it
        from ``stacked``; a factorized block builds its Kronecker product,
        and only within the tractability cap (None above)."""
        if self._matrix is None:
            if self.stacked is not None:
                self._matrix = self.stacked.matrix()
            elif self.factors is not None:
                f = self.factors
                if f.delta_cov.shape[0] * f.act_cov.shape[0] <= MAX_BLOCK:
                    self._matrix = np.kron(f.delta_cov, f.act_cov)
        return self._matrix

    def eigenvalues(self) -> np.ndarray:
        """Spectrum (descending), computed without eigenvectors. For
        factorized blocks this is the sorted outer product of the factor
        spectra, which is exact and does not require materializing the
        Kronecker product."""
        if self._eigenvalues is None:
            if self.kind == "factorized":
                ld = linalg.sym_eigvals(self.factors.delta_cov)
                la = linalg.sym_eigvals(self.factors.act_cov)
                self._eigenvalues = np.sort(np.outer(ld, la).ravel())[::-1]
            else:
                self._eigenvalues = linalg.sym_eigvals(self.matrix)
        return self._eigenvalues

    def spectrum(self) -> linalg.EigenDecomposition:
        if self.matrix is None:
            raise FisherSizeError(
                "block matrix was not materialized; use eigenvalues() instead"
            )
        return linalg.sym_eig(self.matrix)

    def condition_number(self, **kw) -> float:
        return linalg.condition_number(self.eigenvalues(), **kw)

    def save(self, path):
        """Write an exact block to ``path`` byte for byte as
        ``np.save(path, self.matrix)`` would, one row of tiles at a time,
        without building ``matrix``."""
        if self.stacked is None:
            raise ConsistencyError("only an exact block is saved tile by tile")
        self.stacked.save(path)


@dataclass
class ClassSweep:
    """One forward pass of the inputs and one full backprop per Fisher row
    of the output: what the Fisher blocks of every layer are built from."""

    trace: net.ForwardTrace
    weights: list  # per row, (B,) weight of the row
    deltas: list  # per row, the per-layer deltas


def check_enumerable(model: net.Model):
    """Refuse a model whose Fisher blocks cannot be built here: a batch-norm
    model (the deltas come from ``net.backpropagate_deltas``, which has no
    gain/std factor) or a head whose classes cannot be enumerated raises
    ConsistencyError; a softmax head of more than 10 classes raises
    FisherSizeError."""
    if model.params.gains:
        raise ConsistencyError("Fisher blocks are not defined for batch-norm models")
    head, c = model.spec.layers[-1].nonlinearity, model.spec.output_dim
    if head == "softmax" and c > 10:
        raise FisherSizeError(f"exact class enumeration capped at 10 classes, got {c}")
    if not (head == "softmax" or (head == "sigmoid" and c == 1)):
        raise ConsistencyError(
            "Fisher blocks need a sigmoid (binary) or softmax (<=10 classes) head, "
            f"got {head!r} with {c} outputs"
        )


def class_sweep(model: net.Model, inputs) -> ClassSweep:
    """Forward the inputs once and backprop each Fisher row of the output
    through every layer; the weighted outer products of a layer's rows sum
    to each example's output Fisher, sum_y p_y delta_y delta_y^T over the
    classes y. Models that ``check_enumerable`` refuses are refused first.

    A head with three or more classes gives one row per class: weight p_y,
    output delta h - onehot(y). A two-class head gives one row: its class
    deltas are delta_0 = p_1 j and delta_1 = -p_0 j with p_0 + p_1 = 1, so
    the sum is p_0 p_1 j j^T for j = delta_0 - delta_1. Backprop is linear,
    so j is backpropagated from its output value: 1 for a sigmoid, whose
    class deltas are h - 0 and h - 1, and (-1, +1) for a 2-way softmax."""
    check_enumerable(model)
    trace = model.forward(np.asarray(inputs, dtype=np.float64))
    h = trace.outputs
    c = model.spec.output_dim
    if model.spec.layers[-1].nonlinearity == "sigmoid":
        p1 = h[:, 0]
        rows = [(p1 * (1.0 - p1), np.ones_like(h))]
    elif c == 2:
        rows = [(h[:, 0] * h[:, 1], np.tile([-1.0, 1.0], (h.shape[0], 1)))]
    else:
        rows = [(h[:, y], h - onehot) for y, onehot in enumerate(np.eye(c))]
    return ClassSweep(
        trace,
        [weight for weight, _ in rows],
        [net.backpropagate_deltas(trace, model.params, model.spec, delta_last)
         for _, delta_last in rows],
    )


def fisher_rows(sweep: ClassSweep, layer_index: int) -> list:
    """The sweep's (weight, delta) rows at the layer."""
    return [(weight, deltas[layer_index])
            for weight, deltas in zip(sweep.weights, sweep.deltas)]


def exact_block_size(model, layer_index):
    """Side of the layer's exact block; FisherSizeError above the cap."""
    layer = model.spec.layers[layer_index]
    size = layer.out_dim * layer.in_dim
    if size > MAX_BLOCK:
        raise FisherSizeError(f"exact block would be {size}x{size} (cap {MAX_BLOCK})")
    return size


def exact_fisher_block(model: net.Model, inputs, layer_index: int,
                       sweep: ClassSweep | None = None) -> FisherBlock:
    """Exact per-layer Fisher block: labels enumerated, inputs averaged.

    F = G^T G / B (see ``StackedG``). The block keeps G's factors, the
    weighted deltas and the layer's signal; its dense ``matrix`` is built
    when first read, and ``save`` writes it without building it. ``sweep``
    is ``class_sweep(model, inputs)`` shared across layers; when given,
    ``inputs`` is not read."""
    exact_block_size(model, layer_index)
    if sweep is None:
        sweep = class_sweep(model, inputs)
    scaled = [delta * np.sqrt(weight)[:, None]
              for weight, delta in fisher_rows(sweep, layer_index)]
    stacked = StackedG(scaled, sweep.trace.signals[layer_index])
    return FisherBlock(layer_index, "exact", stacked=stacked)


def factorized_fisher_block(model: net.Model, inputs, layer_index: int,
                            sweep: ClassSweep | None = None):
    """Kronecker-factorized block under the delta/activation independence
    assumption: returns (factors, block). ``sweep`` is as for
    ``exact_fisher_block``. Eigenvalues come from the factors; the block's
    ``matrix`` is built only when read."""
    n_out = model.spec.layers[layer_index].out_dim
    if sweep is None:
        sweep = class_sweep(model, inputs)
    signal = sweep.trace.signals[layer_index]
    b = signal.shape[0]
    delta_cov = np.zeros((n_out, n_out))
    for weight, delta in fisher_rows(sweep, layer_index):
        delta_cov += (delta * weight[:, None]).T @ delta
    delta_cov /= b
    delta_cov = (delta_cov + delta_cov.T) / 2.0
    act_cov = signal.T @ signal / b
    act_cov = (act_cov + act_cov.T) / 2.0
    factors = KroneckerFactors(delta_cov, act_cov)
    return factors, FisherBlock(layer_index, "factorized", factors=factors)


@dataclass
class ConditioningRow:
    layer: int
    kind: str
    lambda_max: float
    lambda_min: float
    cond: float
    cond_ratio: float | None = None
    flag: str = ""  # "floored", "too_large", "degenerate" or empty


def conditioning_report(
    model: net.Model,
    inputs,
    kinds=("factorized",),
    baselines: dict | None = None,
) -> list[ConditioningRow]:
    """Per-layer condition numbers for the requested block kinds.

    ``baselines`` maps (layer, kind) to the pre-whitening condition number;
    when given, each row carries the ratio to it. Degenerate spectra and
    over-cap exact blocks are flagged rather than raised, and so is a row
    whose lambda_min sits at ``linalg.COND_FLOOR`` times lambda_max
    ("floored"): its cond is the floor, not a measured conditioning."""
    rows = []
    sweep = None  # one class sweep serves every layer and kind
    for layer_index in range(model.spec.depth):
        for kind in kinds:
            try:
                if kind == "exact":
                    exact_block_size(model, layer_index)
                if sweep is None:
                    sweep = class_sweep(model, inputs)
                if kind == "exact":
                    block = exact_fisher_block(model, inputs, layer_index, sweep)
                else:
                    _, block = factorized_fisher_block(model, inputs, layer_index, sweep)
                lam = block.eigenvalues()
                cond = linalg.condition_number(lam)
            except FisherSizeError:
                rows.append(ConditioningRow(layer_index, kind, np.nan, np.nan, np.nan, flag="too_large"))
                continue
            except DegenerateSpectrumError:
                rows.append(ConditioningRow(layer_index, kind, np.nan, np.nan, np.nan, flag="degenerate"))
                continue
            ratio = None
            if baselines is not None and (layer_index, kind) in baselines:
                ratio = cond / baselines[(layer_index, kind)]
            lmax, lmin = float(lam.max()), float(lam.min())
            flag = "floored" if lmin <= linalg.COND_FLOOR * lmax else ""
            rows.append(ConditioningRow(layer_index, kind, lmax, lmin, cond, ratio, flag))
    return rows
