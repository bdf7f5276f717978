import pytest

from hopfib.corpus import (
    SHIPPED_NAMES,
    builtin_group,
    direct_product,
    group_algebra_pair,
    quantum_m2_kernel,
    quantum_sl2_kernel,
    shipped_instance,
    small_quantum_sl2,
)
from hopfib.fileio import corpus_instance_to_dict, instance_from_dict
from hopfib.linalg import FieldSpec
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


QUANTUM_FAMILIES = {"qsl2": quantum_sl2_kernel, "usl2": small_quantum_sl2, "qm2": quantum_m2_kernel}


@pytest.fixture(scope="session")
def rebased_big_p(instances):
    """A shipped instance dict at p = 2**31 - 1 in a random basis.

    Group algebras have structure constants 0 and 1, so the same integers
    define the same Hopf algebra, with the same A, over any prime; the
    change of basis, seeded by `seed`, then makes every coefficient a large
    field element. The quantum instances depend on a root of unity q, so
    they are built again at that prime, and their random basis is monomial
    (random_change_of_basis with dense=False): in a dense basis their
    load-time axiom checks take seconds and more than a gigabyte each.
    """

    def get(name, seed=1):
        prov = instances(name).provenance
        if name in QUANTUM_FAMILIES:
            order = prov["ell"] if "ell" in prov else prov["t"]
            d = corpus_instance_to_dict(QUANTUM_FAMILIES[name](order, P_BIG))
            return random_change_of_basis(d, seed=seed, dense=False)
        d = corpus_instance_to_dict(instances(name))
        d["field"] = {"p": P_BIG}
        d["provenance"] = dict(prov, p=P_BIG)
        return random_change_of_basis(d, seed=seed)

    return get


@pytest.fixture(scope="session")
def oracle_cases(instances, rebased_big_p):
    """The pairs on which the checks restricted to a generating set are held
    against their exhaustive oracles: the shipped instances, each again at
    p = 2**31 - 1 in a random basis, and F_p[S3 x S3] at that prime with A
    its centre."""
    s3s3 = direct_product(builtin_group("s3"), builtin_group("s3"))
    return ([instances(name) for name in SHIPPED_NAMES]
            + [instance_from_dict(rebased_big_p(name)) for name in SHIPPED_NAMES]
            + [group_algebra_pair(FieldSpec(P_BIG), s3s3, s3s3.center())])


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


@pytest.fixture
def spy(monkeypatch):
    """spy(name, *owners) puts a wrapper of owners[0].name on every owner and
    returns the list of each call's positional arguments."""
    def install(name, *owners):
        real, calls = getattr(owners[0], name), []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, wrapper)
        return calls
    return install
