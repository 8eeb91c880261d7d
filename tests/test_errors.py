"""Every refusal in src/whitenet raises a type from whitenet.errors."""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

from whitenet import errors, linalg, net
from whitenet.data import Dataset, split_train_val
from whitenet.errors import ConfigError, ConsistencyError

SRC = Path(__file__).resolve().parents[1] / "src" / "whitenet"
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def raised_names(source):
    """(line, name) of every ``raise Name`` and ``raise Name(...)``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_raised_names_reads_both_forms():
    source = "raise ValueError('x')\nraise KeyError\nraise\nraise errors.ConfigError('y')\n"
    assert list(raised_names(source)) == [(1, "ValueError"), (2, "KeyError")]


def test_src_raises_no_builtin_exception():
    found = [f"{path.name}:{line} raises {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in raised_names(path.read_text())
             if name in BUILTIN_EXCEPTIONS]
    assert not found, "raise an errors.py type instead: " + "; ".join(found)


def _not_symmetric():
    linalg.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def _negative_epsilon():
    lam, e = np.array([1.0]), np.eye(2)[:, :1]
    linalg.preconditioner(lam, e, -1.0)


def _val_size_out_of_range():
    ds = Dataset(np.zeros((4, 2)), np.zeros((4, 1)))
    split_train_val(ds, 4, seed=0)


SITES = {
    "non_positive_dim": (lambda: net.NetSpec([0, 3]), ConfigError),
    "empty_chain": (lambda: net.NetSpec([]), ConfigError),
    "no_layer_from_one_size": (lambda: net.NetSpec([5]), ConfigError),
    "unknown_nonlinearity": (lambda: net.NetSpec([2, 3], head="swish"), ConfigError),
    "softmax_not_last": (lambda: net.NetSpec([2, 3, 1], hidden="softmax"), ConfigError),
    "unknown_loss": (lambda: net.loss("hinge", np.zeros((1, 1)), np.zeros((1, 1))), ConfigError),
    "val_size_out_of_range": (_val_size_out_of_range, ConfigError),
    "negative_epsilon": (_negative_epsilon, ConfigError),
    "not_symmetric": (_not_symmetric, ConsistencyError),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_each_refusal_raises_its_errors_type(site):
    call, kind = SITES[site]
    assert kind.__module__ == errors.__name__ and issubclass(kind, ValueError)
    with pytest.raises(kind) as exc:
        call()
    assert exc.type is kind
