import pytest

from orderkit.numberfield import make_field
from orderkit.orders import is_order, maximal_order


@pytest.fixture(scope="session")
def gaussian_field():
    return make_field([1, 0, 1])


@pytest.fixture(scope="session")
def z_i(gaussian_field):
    return maximal_order(gaussian_field)


@pytest.fixture(scope="session")
def z_2i(gaussian_field):
    return is_order(gaussian_field, [[1, 0], [0, 2]])


@pytest.fixture(scope="session")
def eisenstein_field():
    return make_field([3, 0, 1])


@pytest.fixture(scope="session")
def o_minus3(eisenstein_field):
    return maximal_order(eisenstein_field)


@pytest.fixture(scope="session")
def z_sqrt_minus3(eisenstein_field):
    return is_order(eisenstein_field, [[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def field_minus5():
    return make_field([5, 0, 1])


@pytest.fixture(scope="session")
def z_sqrt_minus5(field_minus5):
    return maximal_order(field_minus5)


@pytest.fixture(scope="session")
def field_sqrt2():
    return make_field([-2, 0, 1])


@pytest.fixture(scope="session")
def corpus_monoids():
    """(corpus entry, class monoid) for the 183 orders of the verify corpus."""
    from orderkit.ideals import class_monoid
    from orderkit.verify import build_corpus
    return [(e, class_monoid(e.order)) for e in build_corpus()]
