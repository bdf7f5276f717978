import pytest

from hopfib.corpus import shipped_instance
from hopfib.fileio import corpus_instance_to_dict
from oracles import random_change_of_basis

P_BIG = 2**31 - 1  # the largest prime the verifier accepts


@pytest.fixture(scope="session")
def instances():
    """The shipped corpus, built once per test session (qm2 is expensive)."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = shipped_instance(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def rebased_big_p(instances):
    """A shipped group-algebra instance dict at p = 2**31 - 1 in a random basis.

    Group algebras have structure constants 0 and 1, so the same integers
    define the same Hopf algebra, with the same A, over any prime; the
    change of basis, seeded by `seed`, then makes every coefficient a large
    field element.
    """

    def get(name, seed=1):
        d = corpus_instance_to_dict(instances(name))
        d["field"] = {"p": P_BIG}
        d["provenance"] = dict(d["provenance"], p=P_BIG)
        return random_change_of_basis(d, seed=seed)

    return get


@pytest.fixture(scope="session")
def q8_pair(instances):
    return instances("q8")


@pytest.fixture(scope="session")
def c3_pair(instances):
    return instances("c3")


@pytest.fixture(scope="session")
def c4c2_pair(instances):
    return instances("c4c2")


@pytest.fixture(scope="session")
def s3c2_pair(instances):
    return instances("s3c2")


@pytest.fixture(scope="session")
def qsl2_pair(instances):
    return instances("qsl2")


@pytest.fixture(scope="session")
def usl2_pair(instances):
    return instances("usl2")


@pytest.fixture(scope="session")
def qm2_pair(instances):
    return instances("qm2")
