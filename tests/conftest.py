from __future__ import annotations

import pytest
from hypothesis import settings

from qll.harness import pair_relation, resolve_base
from qll.ortho import ortho_from_atom_orthogonality
from qll.products import (
    down_product,
    materialize_top_product,
    sep_product,
    star_product,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def mo2():
    return resolve_base("mo2")


@pytest.fixture(scope="session")
def mo3():
    return resolve_base("mo3")


@pytest.fixture(scope="session")
def boolean2():
    return resolve_base("boolean2")


@pytest.fixture(scope="session")
def gf3_2():
    return resolve_base("gf3_2")


@pytest.fixture(scope="session")
def gf3_tensor():
    return resolve_base("gf3_tensor")


@pytest.fixture(scope="session")
def sep_mm(mo2):
    return sep_product(mo2.space, mo2.space)


@pytest.fixture(scope="session")
def top_mm(mo2):
    return materialize_top_product(mo2.space, mo2.space)


@pytest.fixture(scope="session")
def star_mm(mo2):
    return star_product(mo2.space, mo2.space)


@pytest.fixture(scope="session")
def down_gg(gf3_2):
    return down_product(gf3_2.model, gf3_2.model)


@pytest.fixture(scope="session")
def pair_rel_mm(mo2, sep_mm):
    return pair_relation(
        sep_mm.grid.n1, sep_mm.grid.n2, mo2.relation, mo2.relation
    )


@pytest.fixture(scope="session")
def hash_ortho_mm(sep_mm, pair_rel_mm):
    cons = ortho_from_atom_orthogonality(sep_mm.space, pair_rel_mm)
    assert cons.ok
    return cons.ortho
