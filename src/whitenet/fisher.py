"""Fisher information diagnostics for small networks.

A layer's Fisher block is E[vec(delta s^T) vec(delta s^T)^T], where delta
is the loss gradient at the layer's pre-activation, s is the layer's input
signal in the model's parametrization (``signal``: the previous activation
of a canonical model, the whitened one of a whitened model), and vec
flattens by rows. The expectation
over labels is taken exactly by enumerating the output classes weighted by
the model's own predictive distribution; the expectation over inputs is the
empirical mean. Both forms read a layer's per-example output Fisher from a
``ClassSweep``: weighted delta rows, one per class, or a single row for a
two-class head, built at the output and backpropagated once.

An ``ExactBlock`` keeps the weighted deltas and the layer's signal, builds
its dense ``matrix`` when first read, and ``save`` streams that matrix to
disk without building it. A ``FactorizedBlock`` assumes delta and s
independent and keeps only the two covariance factors; the block they
stand for, never built, is their Kronecker product in the row-major vec
convention, F[km, ln] = delta_cov[k, l] * act_cov[m, n]. Off-block-diagonal
(cross-layer) terms are never materialized. A conditioning report forwards
its inputs once and backprops each Fisher row once, and every layer's
factorized block reads its deltas from that one sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, net
from .errors import ConsistencyError, DegenerateSpectrumError, FisherSizeError

MAX_BLOCK = 2000
TILE_COLUMNS = 128  # width of the G column blocks an exact block is built from


@dataclass
class FactorizedBlock:
    """A Kronecker-factored block, F = delta_cov (x) act_cov."""

    delta_cov: np.ndarray  # E[delta delta^T], (N_i, N_i)
    act_cov: np.ndarray  # E[s s^T] uncentered, (N_{i-1}, N_{i-1})

    def eigenvalues(self) -> np.ndarray:
        """Spectrum (descending): the sorted outer product of the factor
        spectra, which is exact and needs no Kronecker product."""
        ld = linalg.sym_eigvals(self.delta_cov)
        la = linalg.sym_eigvals(self.act_cov)
        return np.sort(np.outer(ld, la).ravel())[::-1]


@dataclass
class ExactBlock:
    """An exact block, F = G^T G / B, where G stacks the rows
    sqrt(w_rb) vec(delta_rb s_b^T) of every Fisher row r of the sweep and
    example b, B rows for a two-class head and C B for C classes.

    G is never built whole: its column block for output units [k0, k1) is
    sqrt(w_r) delta_r[:, k0:k1] (x) s, about ``TILE_COLUMNS`` wide, built
    when a tile needs it. F is written one row of tiles at a time, and
    each product is computed once: the diagonal tile is the same-buffer
    product G_a^T G_a, which numpy runs as SYRK, and a tile right of it is
    G_a^T G_c. A tile left of the diagonal is the transpose of the tile an
    earlier row wrote there, so F is exactly symmetric."""

    scaled: list  # per Fisher row r, sqrt(w_r) * delta_r, (B, N_i)
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

    def _tile_rows(self, f=None):
        """For each row of tiles of F, write its diagonal tile and the tiles
        right of it into those rows of ``f``, or of one reused row buffer
        when ``f`` is None, and yield the rows' range and array. The tiles
        left of the diagonal are left to the caller: they are the
        transposes of tiles already yielded."""
        blocks = self._blocks()
        b = self.signal.shape[0]
        width = blocks[0].stop - blocks[0].start
        buffers = np.empty((2, len(self.scaled) * b * width))  # for G_a and G_c
        row = np.empty((width, self.size)) if f is None else None
        for j, rows in enumerate(blocks):
            out = row[: rows.stop - rows.start] if f is None else f[rows]
            g_a = self._columns(rows, buffers[0])
            out[:, rows] = g_a.T @ g_a
            for cols in blocks[j + 1 :]:
                out[:, cols] = g_a.T @ self._columns(cols, buffers[1])
            out[:, rows.start :] /= b
            yield rows, out

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense block, built on first read: each row of tiles is
        written in place, then mirrored into the column below its diagonal."""
        f = np.empty((self.size, self.size))
        for rows, _ in self._tile_rows(f):
            f[rows.stop :, rows] = f[rows, rows.stop :].T
        return f

    def eigenvalues(self) -> np.ndarray:
        """Spectrum (descending) of ``matrix``, without eigenvectors."""
        return linalg.sym_eigvals(self.matrix)

    def save(self, path):
        """Write to ``path`` the bytes ``np.save`` writes for ``matrix``,
        holding one row of tiles instead of the block. The tiles left of
        the diagonal are the transposes of tiles in the rows already
        written, read back from the file a few rows at a time."""
        back = np.empty((8, self.size))  # rows read back per call
        with open(path, "w+b") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (self.size, self.size)})
            data = fh.tell()
            for rows, out in self._tile_rows():
                fh.flush()
                for r in range(0, rows.start, len(back)):  # F[rows, r] is F[r, rows]^T
                    got = back[: rows.start - r]
                    os.preadv(fh.fileno(), [got], data + 8 * r * self.size)
                    out[:, r : r + len(got)] = got[:, rows].T
                out.tofile(fh)

@dataclass
class ClassSweep:
    """One forward pass of the inputs and one full backprop per Fisher row
    of the output: what the Fisher blocks of every layer are built from."""

    trace: net.ForwardTrace
    weights: list  # per row, (B,) weight of the row
    deltas: list  # per row, the per-layer deltas


def check_enumerable(model: net.Model):
    """Refuse a model whose Fisher blocks cannot be built here: a batch-norm
    model (in training mode its batch statistics couple a batch's examples,
    so a per-example Fisher row is not defined) or a head whose classes
    cannot be enumerated raises ConsistencyError; a softmax head of more
    than 10 classes raises FisherSizeError."""
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


def signal(trace: net.ForwardTrace, layer_index):
    """Layer ``layer_index``'s input in the parametrization of the model
    that made ``trace``: h_{i-1}, or on a whitened model the whitened
    (h_{i-1} - c_i) U_i with U_i = P_i^1/2, the ZCA whitening matrix,
    formed here and not kept."""
    h, phi = trace.signal(layer_index), trace.phi
    if phi is None:
        return h
    return (h - phi.centers[layer_index]) @ linalg.whitening_root(
        phi.preconditioners[layer_index])


def exact_block_size(model, layer_index):
    """Side of the layer's exact block; FisherSizeError above the cap."""
    layer = model.spec.layers[layer_index]
    size = layer.out_dim * layer.in_dim
    if size > MAX_BLOCK:
        raise FisherSizeError(f"exact block would be {size}x{size} (cap {MAX_BLOCK})")
    return size


def exact_fisher_block(model: net.Model, inputs, layer_index: int,
                       sweep: ClassSweep | None = None) -> ExactBlock:
    """Exact per-layer Fisher block: labels enumerated, inputs averaged.
    ``sweep`` is ``class_sweep(model, inputs)`` shared across layers; when
    given, ``inputs`` is not read."""
    exact_block_size(model, layer_index)
    if sweep is None:
        sweep = class_sweep(model, inputs)
    scaled = [deltas[layer_index] * np.sqrt(weight)[:, None]
              for weight, deltas in zip(sweep.weights, sweep.deltas)]
    return ExactBlock(scaled, signal(sweep.trace, layer_index))


def factorized_fisher_block(model: net.Model, inputs, layer_index: int,
                            sweep: ClassSweep | None = None) -> FactorizedBlock:
    """Kronecker-factorized block under the delta/activation independence
    assumption. ``sweep`` is as for ``exact_fisher_block``."""
    n_out = model.spec.layers[layer_index].out_dim
    if sweep is None:
        sweep = class_sweep(model, inputs)
    s = signal(sweep.trace, layer_index)
    b = s.shape[0]
    delta_cov = np.zeros((n_out, n_out))
    for weight, deltas in zip(sweep.weights, sweep.deltas):
        delta = deltas[layer_index]
        delta_cov += (delta * weight[:, None]).T @ delta
    delta_cov /= b
    delta_cov = (delta_cov + delta_cov.T) / 2.0
    act_cov = s.T @ s / b
    act_cov = (act_cov + act_cov.T) / 2.0
    return FactorizedBlock(delta_cov, act_cov)


@dataclass
class ConditioningRow:
    layer: int
    lambda_max: float
    lambda_min: float
    cond: float
    cond_ratio: float | None = None
    flag: str = ""  # "floored", "degenerate" or empty


def conditioning_report(model: net.Model, inputs,
                        baselines: dict | None = None) -> list[ConditioningRow]:
    """Per-layer condition numbers of the factorized blocks, from one class
    sweep; a model that ``check_enumerable`` refuses raises its error.

    ``baselines`` maps a layer to its pre-whitening condition number; when
    given, each row carries the ratio to it. A degenerate spectrum is
    flagged rather than raised, and so is a row whose lambda_min sits at
    ``linalg.COND_FLOOR`` times lambda_max ("floored"): its cond is the
    floor, not a measured conditioning."""
    sweep = class_sweep(model, inputs)
    rows = []
    for layer_index in range(model.spec.depth):
        lam = factorized_fisher_block(model, inputs, layer_index, sweep).eigenvalues()
        try:
            cond = linalg.condition_number(lam)
        except DegenerateSpectrumError:
            rows.append(ConditioningRow(layer_index, np.nan, np.nan, np.nan, flag="degenerate"))
            continue
        ratio = None
        if baselines is not None and layer_index in baselines:
            ratio = cond / baselines[layer_index]
        lmax, lmin = float(lam.max()), float(lam.min())
        flag = "floored" if lmin <= linalg.COND_FLOOR * lmax else ""
        rows.append(ConditioningRow(layer_index, lmax, lmin, cond, ratio, flag))
    return rows
