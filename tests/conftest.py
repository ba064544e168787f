import numpy as np
import pytest

from unispan.algebra import TypeISubalgebraSpec
from unispan.linalg import hermitian_eig


def random_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_hermitian(rng, n):
    g = random_complex(rng, (n, n))
    return (g + g.conj().T) / 2


def random_unitary(rng, n):
    """Haar-ish unitary: the eigenvectors of a random Hermitian matrix."""
    return hermitian_eig(random_hermitian(rng, n)).eigenvectors


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def grid_specs():
    from unispan.selftest import spec_grid

    return spec_grid()


def e_unit(n, i, j):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


MASA2 = TypeISubalgebraSpec.masa(2)


def oracle_specs(rng):
    """Every grid spec, and a two-factor-block c4 in general position."""
    from unispan.selftest import spec_grid

    c4 = [(2, [2]), (2, [2])]
    conjugated = TypeISubalgebraSpec.of_blocks(c4, conjugation=random_unitary(rng, 8))
    return spec_grid() + [("c4-conjugated", conjugated)]
