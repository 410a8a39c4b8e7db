import math

import numpy as np
import pytest
import sympy

from flagwalk import classifier
from flagwalk.classifier import (EmbeddingSpec, FlagConfig, classify,
                                 count_irreducible_components,
                                 induced_morphism, lie_intersection,
                                 parabolic_basis, radical_basis)
from flagwalk.errors import ConfigurationError, PreconditionError
from flagwalk.examples import get_example, list_examples
from flagwalk.group_core import Sl2Triple, principal_triple

rng = np.random.default_rng(404)


# ---------------------------------------------------------------- intersection


def test_lie_intersection_self():
    basis = [rng.normal(size=(3, 3)) for _ in range(4)]
    inter = lie_intersection(basis, basis)
    assert len(inter) == 4


def test_lie_intersection_triangular():
    upper = [np.array([[1.0, 0.0], [0.0, -1.0]]),
             np.array([[0.0, 1.0], [0.0, 0.0]])]
    lower = [np.array([[1.0, 0.0], [0.0, -1.0]]),
             np.array([[0.0, 0.0], [1.0, 0.0]])]
    inter = lie_intersection(upper, lower)
    assert len(inter) == 1
    v = inter[0]
    assert abs(abs(v[0, 0]) - abs(v[1, 1])) <= 1e-12
    assert abs(v[0, 1]) <= 1e-12 and abs(v[1, 0]) <= 1e-12


def _sympy_intersection_dim(A, B):
    MA = sympy.Matrix([[sympy.Rational(x) for x in a.ravel()] for a in A]).T
    MB = sympy.Matrix([[sympy.Rational(x) for x in b.ravel()] for b in B]).T
    stacked = MA.row_join(-MB)
    return len(stacked.nullspace())


def test_lie_intersection_matches_sympy_oracle():
    for _ in range(15):
        A = [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(3)]
        B = [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(3)]
        # force one shared direction half of the time
        if rng.random() < 0.5:
            B[0] = A[0].copy()
        if np.linalg.matrix_rank(np.stack([m.ravel() for m in A])) < 3:
            continue
        if np.linalg.matrix_rank(np.stack([m.ravel() for m in B])) < 3:
            continue
        assert len(lie_intersection(A, B)) == _sympy_intersection_dim(A, B)


def test_lie_intersection_float_path_matches_exact():
    # irrational entries force the SVD path; compare against the exact
    # answer for a rotated pair with a known 1-dim overlap
    q = np.linalg.qr(rng.normal(size=(9, 9)))[0]
    shared = q[:, 0].reshape(3, 3) * np.sqrt(2.0)
    A = [shared, q[:, 1].reshape(3, 3), q[:, 2].reshape(3, 3)]
    B = [shared + 1e-16, q[:, 3].reshape(3, 3), q[:, 4].reshape(3, 3)]
    assert len(lie_intersection(A, B)) == 1


def test_lie_intersection_svd_path_keeps_every_label(monkeypatch):
    # conjugating by q = I + pi 1e-7 E_0,n-1 in Q keeps the case, and
    # leaves entries no small fraction snaps to, so every intersection takes
    # the SVD path
    def exact(*_):
        raise AssertionError("the exact path was taken")

    monkeypatch.setattr(classifier, "_frac_nullspace", exact)
    for ex in list_examples():
        n = ex.flag.n
        q = np.eye(n)
        q[0, n - 1] = math.pi * 1e-7
        qinv = 2 * np.eye(n) - q
        t = ex.embedding.triple
        conj = Sl2Triple(*(q @ np.asarray(m, float) @ qinv
                           for m in (t.e, t.x, t.f)))
        assert classify(ex.flag, EmbeddingSpec(conj)).label == \
            ex.expected_case, ex.name


# ---------------------------------------------------------------- bases


def test_parabolic_and_radical_dimensions():
    cfg = FlagConfig(3, (2,))
    assert len(parabolic_basis(cfg)) == 7   # gl2 block + scalar + 2 upper
    assert len(radical_basis(cfg)) == 3     # 2 strict upper + 1 block scalar
    full = FlagConfig(4, (1, 2, 3))
    assert len(parabolic_basis(full)) == 10
    assert len(radical_basis(full)) == 9    # full Borel minus the identity


def test_radical_with_simple_block():
    cfg = FlagConfig(3, (2,), r0_simple_block=0)
    assert len(radical_basis(cfg)) == 3 + 3  # plus sl2 of the first block


def test_flag_config_validation():
    with pytest.raises(ConfigurationError):
        FlagConfig(3, (2, 2))
    with pytest.raises(ConfigurationError):
        FlagConfig(3, ())
    with pytest.raises(ConfigurationError):
        FlagConfig(3, (1,), r0_simple_block=5)


# ---------------------------------------------------------------- components


def test_count_components_principal():
    for m in (2, 4, 6):
        assert count_irreducible_components(
            np.asarray(principal_triple(m).e, float)) == 1


def test_count_components_block_sum():
    e = np.zeros((4, 4))
    e[0, 1] = 1.0
    e[2, 3] = 1.0
    assert count_irreducible_components(e) == 2


def test_count_components_canned_reducible_embedding():
    ex = get_example("ex-to-be-treated")
    assert count_irreducible_components(
        np.asarray(ex.embedding.triple.e, float)) == 2


def test_count_components_rejects_non_nilpotent():
    with pytest.raises(PreconditionError):
        count_irreducible_components(np.eye(3))


# ---------------------------------------------------------------- morphism


def test_induced_morphism_obstructed_block():
    ex = get_example("ex-to-be-treated")
    blocks = induced_morphism(ex.flag, ex.embedding)
    assert len(blocks) == 2
    xb, eb = blocks[0]
    assert np.allclose(xb, np.diag([4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0]))
    assert abs(np.trace(xb)) <= 1e-12


def test_induced_morphism_trivial_for_case21():
    ex = get_example("ex-case-2.1-1")
    blocks = induced_morphism(ex.flag, ex.embedding)
    # full flag: every block is 1x1 and traceless, i.e. zero
    for xb, eb in blocks:
        assert xb.shape == (1, 1)
        assert abs(xb[0, 0]) <= 1e-12


def test_induced_morphism_principal_blocks():
    ex = get_example("ex-principal-sl3")
    blocks = induced_morphism(ex.flag, ex.embedding)
    xb, eb = blocks[0]
    assert np.allclose(xb, np.diag([1.0, -1.0]))
    assert np.allclose(eb, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_induced_morphism_swaps_to_lowering_side():
    # embedding whose f (not e) preserves the flag
    t = principal_triple(3)
    emb = EmbeddingSpec(Sl2Triple(e=np.asarray(t.f, float),
                                  x=-np.asarray(t.x, float),
                                  f=np.asarray(t.e, float)))
    blocks = induced_morphism(FlagConfig(3, (1,)), emb)
    xb, eb = blocks[1]
    assert np.allclose(xb, np.diag([1.0, -1.0]))
    assert np.allclose(eb, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_induced_morphism_swaps_opposite_borel():
    # conjugation flipping e to the lower side and f to the upper side is
    # still usable: the swapped pair (-x, f) preserves the flag
    t = principal_triple(3)
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    emb = EmbeddingSpec(Sl2Triple(
        e=rot @ np.asarray(t.e, float) @ rot.T,
        x=rot @ np.asarray(t.x, float) @ rot.T,
        f=rot @ np.asarray(t.f, float) @ rot.T))
    cfg = FlagConfig(3, (1,))
    assert len(induced_morphism(cfg, emb)) == 2
    assert classify(cfg, emb).label == "Case2_3a"


def _generic_rotation_conjugate(angle=0.7):
    t = principal_triple(3)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return EmbeddingSpec(Sl2Triple(
        e=rot @ np.asarray(t.e, float) @ rot.T,
        x=rot @ np.asarray(t.x, float) @ rot.T,
        f=rot @ np.asarray(t.f, float) @ rot.T))


def test_induced_morphism_refuses_incompatible():
    with pytest.raises(ConfigurationError):
        induced_morphism(FlagConfig(3, (1,)), _generic_rotation_conjugate())


# ---------------------------------------------------------------- classify


def test_all_canned_examples_classify_correctly():
    for ex in list_examples():
        assert classify(ex.flag, ex.embedding).label == ex.expected_case, ex.name


def test_principal_in_sl_n_is_decomposable():
    for n in (3, 4, 5):
        t = principal_triple(n)
        emb = EmbeddingSpec(Sl2Triple(e=np.asarray(t.e, float),
                                      x=np.asarray(t.x, float),
                                      f=np.asarray(t.f, float)))
        for k in range(1, n):
            assert classify(FlagConfig(n, (k,)), emb).label == "Case2_3a"


def test_case22_intersection_is_nilpotent():
    ex = get_example("ex-reducible")
    lab = classify(ex.flag, ex.embedding)
    assert lab.diagnostics["dim_qh_r0"] == 1
    assert lab.diagnostics["intersection_spectral_radius"] <= 1e-9


def test_case23_residual_separation():
    good = classify(get_example("ex-principal-sl3").flag,
                    get_example("ex-principal-sl3").embedding)
    bad = classify(get_example("ex-to-be-treated").flag,
                   get_example("ex-to-be-treated").embedding)
    assert max(good.diagnostics["extension_residuals"]) <= 1e-6
    assert max(bad.diagnostics["extension_residuals"]) > 0.1


def _random_block_upper(cfg, r):
    n = cfg.n
    cuts = cfg.cuts()
    blk = np.zeros(n, dtype=int)
    for b, (a, c) in enumerate(zip(cuts, cuts[1:])):
        blk[a:c] = b
    m = np.eye(n)
    for i in range(n):
        for j in range(n):
            if blk[i] < blk[j]:
                m[i, j] = r.uniform(-2.0, 2.0)
            elif blk[i] == blk[j] and i != j:
                m[i, j] = r.uniform(-0.5, 0.5)
    return m / abs(np.linalg.det(m)) ** (1.0 / n)


def test_classify_invariant_under_flag_preserving_conjugation():
    r = np.random.default_rng(17)
    for name in ("ex-reducible", "ex-case-2.1-1", "ex-to-be-treated",
                 "ex-principal-sl3"):
        ex = get_example(name)
        for _ in range(3):
            p = _random_block_upper(ex.flag, r)
            pinv = np.linalg.inv(p)
            t = ex.embedding.triple
            conj = Sl2Triple(e=p @ np.asarray(t.e, float) @ pinv,
                             x=p @ np.asarray(t.x, float) @ pinv,
                             f=p @ np.asarray(t.f, float) @ pinv)
            lab = classify(ex.flag, EmbeddingSpec(conj))
            assert lab.label == ex.expected_case, name


def test_classify_refuses_misaligned_h():
    # principal sl2 conjugated by a generic rotation misses the standard flag
    with pytest.raises(ConfigurationError):
        classify(FlagConfig(3, (1,)), _generic_rotation_conjugate())


@pytest.mark.parametrize("flag", [FlagConfig(3, (2,)), FlagConfig(5, (1, 3))])
def test_classify_refuses_triple_of_wrong_size(flag):
    # a 2x2 triple in a flag of SL3 or SL5 used to be labelled Case1
    with pytest.raises(ConfigurationError, match="3x3|5x5"):
        classify(flag, EmbeddingSpec(principal_triple(2)))
