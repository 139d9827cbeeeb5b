import importlib
import pkgutil

import numpy as np
import pytest

import cycosc

from cycosc.params import validate_alpha


def random_valid_alpha(rng, lam):
    """Draw an alpha vector satisfying the sum and partial-sum constraints.

    Entries in (-0.2, 0.2) keep every partial sum well above -1 for lam <= 5.
    """
    head = rng.uniform(-0.2, 0.2, lam - 1)
    return np.append(head, -head.sum())


def dense(mat) -> np.ndarray:
    """The dim x dim numpy array of a Banded, the form every dense reference takes."""
    out = np.zeros((mat.dim, mat.dim), dtype=complex)
    for i, j, value in mat.entries():
        out[i, j] = value
    return out


def bits(values) -> bytes:
    """The IEEE bytes of complex values, signed zeros and NaN payloads included."""
    return np.array(list(values), dtype=complex).tobytes()


def lru_caches() -> dict:
    """Every functools cache bound at the top level of a cycosc module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(cycosc.__path__):
        module = importlib.import_module(f"cycosc.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def params_l2():
    return validate_alpha(2, (0.5, -0.5))


@pytest.fixture
def params_l3():
    return validate_alpha(3, (0.3, 0.2, -0.5))


@pytest.fixture
def params_plain():
    return validate_alpha(2, (0.0, 0.0))
