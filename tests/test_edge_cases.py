import numpy as np
import pytest

from ladderkit.algebra import Idempotent, build_triangular, ground_field_algebra, opposite
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.homological import ext_dims, spli_silp, stable_hom_dim, tor_dims
from ladderkit.linalg import Field
from ladderkit.modules import (
    dual,
    hom_space,
    is_injective,
    is_projective,
    minimal_resolution,
    projective_cover,
    radical,
    simples,
    tensor_over,
    zero_module,
)
from ladderkit.recollement import build_recollement, verify_canonical_sequences

F = Field(101)


def rec_for(name):
    alg, default_e = load_fixture(name, F)
    return build_recollement(alg, parse_idempotent(alg, default_e))


def test_zero_module_through_every_functor():
    rec = rec_for("t2")
    z = zero_module(rec.lam)
    zg = zero_module(rec.gamma)
    zs = zero_module(rec.sigma)
    assert rec.functor_e().apply(z).module.dim == 0
    assert rec.functor_q().apply(z).module.dim == 0
    assert rec.functor_p().apply(z).module.dim == 0
    assert rec.functor_l().apply(zg).module.dim == 0
    assert rec.functor_r().apply(zg).module.dim == 0
    assert rec.functor_i().apply(zs).module.dim == 0
    assert verify_canonical_sequences(rec, z)["status"] == "PASS"


def test_zero_module_homological_invariants():
    t2 = build_triangular(ground_field_algebra(F), 2)
    z = zero_module(t2)
    assert is_projective(z)
    assert is_injective(z)
    assert dual(z).dim == 0
    assert radical(z).source.dim == 0
    res = minimal_resolution(z, 3)
    assert res.pd_bound() == ("exact", 0)
    assert stable_hom_dim(z, z) == 0
    s = simples(t2)[0]
    assert len(hom_space(z, s)) == 0 and len(hom_space(s, z)) == 0
    assert ext_dims(z, s, 3) == [0, 0, 0, 0]
    z_op = zero_module(opposite(t2))
    assert tor_dims(z_op, s, 3) == [0, 0, 0, 0]


def test_tensor_with_zero_module():
    rec = rec_for("t2")
    zg = zero_module(rec.gamma)
    t, _ = tensor_over(rec.lambda_e, zg)
    assert t.dim == 0


def test_zero_quotient_algebra_suite():
    # the full matrix algebra has LeL = L: the quotient algebra is zero and
    # everything downstream must cope
    rec = rec_for("m2k")
    assert rec.sigma.dim == 0
    assert spli_silp(rec.sigma, 4).describe() == "Yes(0)"
    rng = np.random.default_rng(0)
    from ladderkit.modules import random_module

    m = random_module(rec.lam, rng)
    assert rec.functor_q().apply(m).module.dim == 0
    assert rec.functor_p().apply(m).module.dim == 0
    assert verify_canonical_sequences(rec, m)["status"] == "PASS"


def test_cover_of_direct_sum_matches_summand_covers():
    from ladderkit.modules import direct_sum

    t2 = build_triangular(ground_field_algebra(F), 2)
    s1, s2 = simples(t2)
    both = direct_sum([s1, s2, s1])
    cover, surj = projective_cover(both)
    covers = [projective_cover(x)[0].dim for x in (s1, s2, s1)]
    assert cover.dim == sum(covers)
    assert surj.is_surjective()


def test_idempotent_sum_spec_roundtrip():
    alg, _ = load_fixture("ideal-chain", F)
    e = parse_idempotent(alg, "e5+e6")
    assert alg.is_idempotent(e.element)
    rec = build_recollement(alg, e)
    assert rec.gamma.dim == 3


def test_parse_idempotent_rejects_bad_specs():
    from ladderkit.algebra import AlgebraError

    alg, _ = load_fixture("t2", F)
    with pytest.raises(AlgebraError):
        parse_idempotent(alg, "x1")
    with pytest.raises(AlgebraError):
        parse_idempotent(alg, "e9")
    with pytest.raises(AlgebraError):
        parse_idempotent(alg, [0, 1, 0])  # the nilpotent basis element
    # a conjugate idempotent given as an explicit vector is accepted
    assert alg.is_idempotent(parse_idempotent(alg, [1, 1, 0]).element)


def test_conjugate_idempotent_rejected_with_clear_message():
    # conjugates of distinguished idempotents induce equivalent recollements,
    # but the corner's primitive system is constructor-supplied data, so they
    # are rejected with a diagnostic rather than silently mis-handled
    from ladderkit.algebra import AlgebraError

    alg, _ = load_fixture("t2", F)
    e = parse_idempotent(alg, [1, 1, 0])
    with pytest.raises(AlgebraError, match="distinguished primitive idempotents"):
        build_recollement(alg, e)
