import hashlib

import numpy as np
import pytest

from dunking import fem, mesh

try:
    from hypothesis import settings

    settings.register_profile("suite", deadline=None, max_examples=25)
    settings.load_profile("suite")
except ImportError:
    pass


@pytest.fixture(scope="session")
def disk4():
    return mesh.generate_canonical("disk", 4)


@pytest.fixture(scope="session")
def disk5():
    return mesh.generate_canonical("disk", 5)


@pytest.fixture(scope="session")
def square4():
    return mesh.generate_canonical("square", 4)


@pytest.fixture(scope="session")
def cross4():
    return mesh.generate_canonical("cross", 4)


def array_digest(*arrays) -> str:
    """First 16 hex digits of the sha256 over the arrays' bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def uniform_fields(m):
    return fem.FieldSet.from_constants(m)


def fields_with_eta(m, kind):
    f = fem.FieldSet.from_constants(m)
    f.eta = fem.eta_variation(m, kind)
    return f


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)
