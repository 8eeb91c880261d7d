"""Gates that can fail: each test applies one known fault to the library
with ``monkeypatch`` and asserts that the gate it names reads FAIL, with
the gate's own measurement, data, seeds and bound (``acceptance_gates``).
A gate that passes on the unchanged code (``test_acceptance``) and fails
here is evidence about the code it reads. A fault that its gate misses is
marked a strict xfail with its numbers: the mark fails the suite once the
gate learns to see the fault, and is then removed."""

import numpy as np
import pytest

from whitenet import fisher, linalg, net, optim

import acceptance_gates as gates


def patch_reparametrize(monkeypatch, fault):
    """Make ``optim.prong_reparametrize`` run as before and then apply
    ``fault(omega, phi)``."""
    reparametrize = optim.prong_reparametrize

    def faulty(omega, phi, *args, **kwargs):
        info = reparametrize(omega, phi, *args, **kwargs)
        fault(omega, phi)
        return info

    monkeypatch.setattr(optim, "prong_reparametrize", faulty)


@pytest.mark.xfail(strict=True, reason=(
    "blind spot: the center alone cuts the activation factor's condition number "
    "from 1.0e4 to 414, and C1 reads ratio 7.2e-2 < 0.1 with P = I"))
def test_c1_fails_when_the_preconditioner_is_the_identity(monkeypatch):
    monkeypatch.setattr(linalg, "preconditioner", lambda spectrum, e, epsilon: np.eye(len(e)))
    passed, detail = gates.c1_conditioning_reduction()
    assert not passed, detail


def test_c2_fails_when_every_center_is_zeroed(monkeypatch):
    # the step then multiplies h, not h - c, by P
    def zero_centers(omega, phi):
        for c in phi.centers:
            c[...] = 0.0

    patch_reparametrize(monkeypatch, zero_centers)
    passed, detail = gates.c2_natural_gradient_equivalence()
    assert not passed, detail


def test_c3_fails_when_the_reparametrization_moves_one_weight(monkeypatch):
    def nudge(omega, phi):
        omega.weights[0][0, 0] += 1e-6

    patch_reparametrize(monkeypatch, nudge)
    passed, detail = gates.c3_function_preservation(monkeypatch)
    assert not passed, detail


def test_c4_fails_when_the_whitening_root_is_p_itself(monkeypatch):
    monkeypatch.setattr(linalg, "whitening_root", lambda p: p)
    passed, detail = gates.c4_whitening_invariant()
    assert not passed, detail


def test_c7_fails_when_one_activation_vjp_is_skipped(monkeypatch):
    def deltas(trace, params, spec, dy):
        # net._deltas, except that dLoss/dy_0 skips the first layer's activation vjp
        for i in range(spec.depth - 1, -1, -1):
            dz = net._batch_norm_vjp(dy, params.gains[i], trace.bn[i]) if params.gains else dy
            yield i, dy, dz
            if i == 0:
                return
            dy = dz @ params.weights[i]
            if i > 1:
                dy = net._activation_vjp(spec.layers[i - 1].nonlinearity,
                                         trace.activations[i - 1], dy)

    monkeypatch.setattr(net, "_deltas", deltas)
    passed, detail = gates.c7_gradient_exactness()
    assert not passed, detail


def test_c8_fails_when_class_sweep_weights_both_classes_half(monkeypatch):
    # at the trained model the predictions sit far from 1/2, so the gap reads 0.95
    sweep = fisher.class_sweep

    def halves(model, inputs):
        # the sigmoid head's two class rows, h - 0 and h - 1, each weighted 1/2
        trace = sweep(model, inputs).trace
        half = np.full(trace.outputs.shape[0], 0.5)
        return fisher.ClassSweep(trace, [half, half], [
            net.backpropagate_deltas(trace, model.params, model.spec, trace.outputs - y)
            for y in (0.0, 1.0)])

    monkeypatch.setattr(fisher, "class_sweep", halves)
    passed, detail = gates.c8_exact_vs_monte_carlo_fisher()
    assert not passed, detail
