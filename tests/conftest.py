import pytest

from weaktensor import (
    OrthoMap,
    box_product,
    find_orthocomplementation,
    fraser_product,
    mo_circle,
    mo_space,
    powerset_space,
    validate_orthomap,
)


@pytest.fixture(scope="session")
def mo3():
    return mo_space(3)


@pytest.fixture(scope="session")
def mo4():
    return mo_space(4)


@pytest.fixture(scope="session")
def pow2():
    return powerset_space(2)


@pytest.fixture(scope="session")
def pow3():
    return powerset_space(3)


@pytest.fixture(scope="session")
def box33(mo3):
    return box_product([mo3, mo3])


@pytest.fixture(scope="session")
def fraser33(mo3):
    return fraser_product([mo3, mo3])


@pytest.fixture(scope="session")
def circle33(mo3):
    return mo_circle(mo3, mo3)


@pytest.fixture(scope="session")
def box44(mo4):
    return box_product([mo4, mo4])


@pytest.fixture(scope="session")
def fraser44(mo4):
    return fraser_product([mo4, mo4])


@pytest.fixture(scope="session")
def mo4_pairing(mo4):
    found = find_orthocomplementation(mo4)
    assert isinstance(found, OrthoMap)
    assert validate_orthomap(mo4, found)
    return found


@pytest.fixture(scope="session")
def circle44(mo4):
    return mo_circle(mo4, mo4)
