"""Gates that can fail: each test applies one known fault to the library
with ``monkeypatch`` and asserts that the gate it names reads FAIL, with
the gate's own measurement, data, seeds and bound (``acceptance_gates``).
A gate that passes on the unchanged code (``test_acceptance``) and fails
here is evidence about the code it reads. A fault that its gate misses is
marked a strict xfail with its numbers: the mark fails the suite once the
gate learns to see the fault, and is then removed."""

import numpy as np
import pytest

from whitenet import linalg, optim

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
