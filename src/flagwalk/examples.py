"""Canned configurations: named (flag, embedding) setups with known case
labels, plus default step measures and fibre start points for the walk
experiments."""

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import StepMeasure
from .classifier import EmbeddingSpec, FlagConfig
from .errors import ConfigurationError
from .fiber import reduce
from .group_core import Sl2Triple, principal_triple


def _m(rows):
    return np.array(rows, dtype=float)


def default_measure():
    """Uniform measure on two positive matrices; Zariski dense, contracting,
    and cone-preserving (the open positive quadrant maps into itself), so
    every boundary/walk experiment is well posed."""
    return StepMeasure.uniform([_m([[2, 1], [1, 1]]), _m([[1, 1], [1, 2]])])


def volatile_measure():
    """Cone-positive measure with a rare, large expansion atom.

    The per-step log-norm increment has standard deviation several times its
    mean, so moderate-deviation events |sigma - lambda n| >= (lambda/4) n stay
    observable by direct Monte Carlo out to n = 2000; the tame default
    measure's tails vanish below any feasible sample size there.
    """
    small = np.array([[1.0, 0.05], [0.05, 1.0]])
    small = small / np.sqrt(np.linalg.det(small))
    big = np.array([[60.0, 1.0], [1.0, 61.0 / 60.0]])
    big = big / np.sqrt(np.linalg.det(big))
    return StepMeasure(((0.95, small), (0.05, big)))


def mixed_sign_measure():
    """Zariski-dense measure with no invariant cone (a rotation-like atom)."""
    return StepMeasure.uniform([_m([[2, 1], [1, 1]]), _m([[0, 1], [-1, 1]])])


def closed_geodesic_point():
    """A lattice point on a closed diagonal orbit, with its period.

    Conjugating by the eigenbasis V of A = [[2,1],[1,1]] turns the diagonal
    flow at time r0 = 2 log((3+sqrt 5)/2) into A itself, an integral matrix,
    so the orbit of V^{-1} (det-normalized) is periodic and never enters the
    cusp region.  In exact arithmetic orbit averages over it converge at rate
    O(1/T); in float64 the diagonal flow multiplies rounding error by about
    e^r, so a numerically integrated orbit leaves the closed orbit after
    about 36 flow-time units.
    """
    a = _m([[2, 1], [1, 1]])
    w, v = np.linalg.eigh(a)
    b = np.linalg.inv(v)
    b = b / abs(np.linalg.det(b)) ** 0.5
    period = 2.0 * math.log((3.0 + math.sqrt(5.0)) / 2.0)
    return reduce(b), period


def _float_triple(t):
    return Sl2Triple(e=np.asarray(t.e, float), x=np.asarray(t.x, float),
                     f=np.asarray(t.f, float))


def _block_triple(n, rows):
    """Principal sl2 in the block given by the (contiguous) row indices."""
    t = principal_triple(len(rows))
    e = np.zeros((n, n)); x = np.zeros((n, n)); f = np.zeros((n, n))
    ix = np.ix_(rows, rows)
    e[ix], x[ix], f[ix] = t.e, t.x, t.f
    return Sl2Triple(e=e, x=x, f=f)


@dataclass(frozen=True)
class ExampleEntry:
    name: str
    description: str
    flag: FlagConfig
    embedding: EmbeddingSpec
    expected_case: str
    defaults: dict = field(default_factory=dict)


def _entries():
    out = []

    # SL3, flag (1): H = lower-right 2x2 block stabilizes the line e1 --
    # the full triple sits inside Q, the compact-orbit situation.
    out.append(ExampleEntry(
        "ex-case-1",
        "SL3, line flag, H the lower-right block: all of h lies in q",
        FlagConfig(3, (1,)),
        EmbeddingSpec(_block_triple(3, [1, 2])),
        "Case1"))

    # SL3, flag (2): H = lower-right block; h meets q in a Borel and the
    # solvable radical exactly in the raising direction.
    out.append(ExampleEntry(
        "ex-reducible",
        "SL3, plane flag, H the lower-right block: diagonal fibre action",
        FlagConfig(3, (2,)),
        EmbeddingSpec(_block_triple(3, [1, 2])),
        "Case2_2",
        defaults={"n": 100000, "trials": 200, "dt": 0.05, "cap": 1.0}))

    # SL4, full flag, H = top-left block: q_H lands inside the Borel = its
    # own solvable radical, so the fibre action is trivial.
    out.append(ExampleEntry(
        "ex-case-2.1-1",
        "SL4, full flag, H the top-left block: trivial fibre action",
        FlagConfig(4, (1, 2, 3)),
        EmbeddingSpec(_block_triple(4, [0, 1])),
        "Case2_1"))

    # SL4, flag (2), H embedded across the two 2x2 blocks so that both x
    # and e land in the solvable radical.
    out.append(ExampleEntry(
        "ex-case-2.1-2",
        "SL4, plane flag, cross-block embedding: trivial fibre action",
        FlagConfig(4, (2,)),
        EmbeddingSpec(Sl2Triple(
            e=_m([[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
            x=np.diag([1.0, 1.0, -1.0, -1.0]),
            f=_m([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]))),
        "Case2_1"))

    # SL4, flag (3): H acts as a 3-dim irreducible plus a trivial summand;
    # the induced 3x3 block pair admits no completing lowering element.
    out.append(ExampleEntry(
        "ex-to-be-treated",
        "SL4, hyperplane flag, reducible (3+1) embedding: non-decomposable",
        FlagConfig(4, (3,)),
        EmbeddingSpec(Sl2Triple(
            e=_m([[0, 1, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0]]),
            x=np.diag([2.0, 0.0, 0.0, -2.0]),
            f=_m([[0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]))),
        "Case2_3b"))

    # SL3, flag (2), principal H: irreducible, hence decomposable.
    out.append(ExampleEntry(
        "ex-principal-sl3",
        "SL3, plane flag, principal embedding: decomposable fibre action",
        FlagConfig(3, (2,)),
        EmbeddingSpec(_float_triple(principal_triple(3))),
        "Case2_3a",
        defaults={"n": 100000, "trials": 50}))

    # SL3, flag (1), principal H: the other maximal parabolic, same label.
    out.append(ExampleEntry(
        "ex-ss",
        "SL3, line flag, principal embedding: decomposable fibre action",
        FlagConfig(3, (1,)),
        EmbeddingSpec(_float_triple(principal_triple(3))),
        "Case2_3a"))

    return out


_CATALOG = {e.name: e for e in _entries()}
_ALIASES = {"ex-2.3.b": "ex-to-be-treated",
            "ex-case-2.1": "ex-case-2.1-1"}


def list_examples():
    """The catalog as an ordered list of entries."""
    return list(_CATALOG.values())


def get_example(name):
    key = _ALIASES.get(name, name)
    if key not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise ConfigurationError(f"unknown example {name!r}; known: {known}")
    return _CATALOG[key]
