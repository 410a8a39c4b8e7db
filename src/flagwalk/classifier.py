"""Case classification for (G, Q, R0, H) configurations.

G = SL_n / PGL_n, Q the block-upper-triangular stabilizer of a coordinate
flag, R0 a normal subgroup of Q (default: the solvable radical, optionally
absorbing one simple block factor), H a copy of SL2/PGL2 given by an
sl2-triple.  The decision procedure follows the dimension pattern of
h ∩ q and h ∩ r0, refined by triple extension on the induced block pairs.
"""

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .group_core import Sl2Triple, extend_sl2_triple


@dataclass(frozen=True)
class FlagConfig:
    """Ambient dimension, strictly increasing flag dims, and the R0 choice.

    r0_simple_block selects one simple block factor of the Levi (by index)
    to absorb into R0 in addition to the solvable radical; None keeps the
    default R0 = solvable radical.
    """

    n: int
    dims: tuple
    r0_simple_block: int = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(b <= a for a, b in zip(dims, dims[1:])) \
                or dims[0] < 1 or dims[-1] > self.n:
            raise ConfigurationError("flag dims must be strictly increasing in [1, n]")
        object.__setattr__(self, "dims", dims)
        nblocks = len(self.cuts()) - 1
        if self.r0_simple_block is not None and not (0 <= self.r0_simple_block < nblocks):
            raise ConfigurationError("r0_simple_block names a nonexistent block")

    def cuts(self):
        c = (0,) + self.dims + ((self.n,) if self.dims[-1] < self.n else ())
        return c

    def block_sizes(self):
        c = self.cuts()
        return tuple(b - a for a, b in zip(c, c[1:]))


@dataclass(frozen=True)
class EmbeddingSpec:
    """An sl2-triple spanning the Lie algebra of the embedded H."""

    triple: Sl2Triple
    group: str = "SL2"   # or "PGL2"

    def __post_init__(self):
        if self.group not in ("SL2", "PGL2"):
            raise ConfigurationError("group must be SL2 or PGL2")
        self.triple.validate()


@dataclass(frozen=True)
class CaseLabel:
    label: str   # Case1 | Case2_1 | Case2_2 | Case2_3a | Case2_3b
    diagnostics: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# subspace bases


def _unit_matrix(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def parabolic_basis(cfg):
    """Basis of the block-upper-triangular subalgebra q (inside gl_n)."""
    n = cfg.n
    cuts = cfg.cuts()
    blk = np.zeros(n, dtype=int)
    for b, (a, c) in enumerate(zip(cuts, cuts[1:])):
        blk[a:c] = b
    return [_unit_matrix(n, i, j) for i in range(n) for j in range(n)
            if blk[i] <= blk[j]]


def radical_basis(cfg):
    """Basis of the Lie algebra of R0: strict block-upper entries plus the
    traceless block-scalar diagonals (the solvable radical of q), optionally
    extended by one simple sl_m block factor of the Levi."""
    n = cfg.n
    cuts = cfg.cuts()
    sizes = cfg.block_sizes()
    blk = np.zeros(n, dtype=int)
    for b, (a, c) in enumerate(zip(cuts, cuts[1:])):
        blk[a:c] = b
    out = [_unit_matrix(n, i, j) for i in range(n) for j in range(n)
           if blk[i] < blk[j]]
    nb = len(sizes)
    for k in range(nb - 1):
        d = np.zeros((n, n))
        d[np.arange(n), np.arange(n)] = np.where(blk == k, sizes[-1], 0.0) \
            - np.where(blk == nb - 1, sizes[k], 0.0)
        out.append(d)
    if cfg.r0_simple_block is not None:
        a, c = cuts[cfg.r0_simple_block], cuts[cfg.r0_simple_block + 1]
        for i in range(a, c):
            for j in range(a, c):
                if i != j:
                    out.append(_unit_matrix(n, i, j))
        for i in range(a, c - 1):
            d = np.zeros((n, n))
            d[i, i], d[i + 1, i + 1] = 1.0, -1.0
            out.append(d)
    return out


# --------------------------------------------------------------------------
# exact / numerical subspace intersection


def _as_fractions(m):
    out = []
    for x in np.asarray(m, dtype=float).ravel():
        fr = Fraction(x).limit_denominator(10 ** 6)
        if abs(float(fr) - x) > 1e-9:
            return None
        out.append(fr)
    return out


def _frac_nullspace(rows, ncols):
    """Nullspace basis of a matrix over the rationals (Gaussian elimination)."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                fac = rows[r][col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def lie_intersection(A, B, tol=1e-9):
    """Orthonormal basis of span(A) ∩ span(B) for two lists of matrices.

    Uses exact rational elimination whenever every entry is (a small)
    rational — the canned configurations are decided exactly — and a
    rank-revealing SVD with threshold `tol` otherwise, warning when a
    singular value falls within 10x of the threshold.
    """
    A = [np.asarray(a, dtype=float) for a in A]
    B = [np.asarray(b, dtype=float) for b in B]
    n2 = A[0].size
    MA = np.stack([a.ravel() for a in A], axis=1)
    MB = np.stack([b.ravel() for b in B], axis=1)

    fa = [_as_fractions(a) for a in A]
    fb = [_as_fractions(b) for b in B]
    if all(v is not None for v in fa + fb):
        rows = []
        for i in range(n2):
            rows.append([col[i] for col in fa] + [-col[i] for col in fb])
        null = _frac_nullspace(rows, len(A) + len(B))
        vecs = []
        for c in null:
            v = sum(float(ci) * MA[:, i] for i, ci in enumerate(c[:len(A)]))
            vecs.append(v)
    else:
        stacked = np.hstack([MA, -MB])
        u, s, vt = np.linalg.svd(stacked)
        smax = s[0] if len(s) else 0.0
        thr = tol * max(smax, 1.0)
        if np.any((s > thr) & (s < 10 * thr)):
            warnings.warn("lie_intersection: singular value near threshold, "
                          "intersection dimension is ill-conditioned")
        null = vt[s.shape[0]:].tolist() if stacked.shape[0] < stacked.shape[1] else []
        null += [vt[i] for i in range(len(s)) if s[i] <= thr]
        vecs = [MA @ np.asarray(c)[:len(A)] for c in null]
    if not vecs:
        return []
    m = np.stack(vecs, axis=1)
    q, r = np.linalg.qr(m)
    keep = np.abs(np.diag(r)) > 1e-12
    return [q[:, i].reshape(A[0].shape) for i in range(q.shape[1]) if keep[i]]


# --------------------------------------------------------------------------
# representation-theoretic helpers


def count_irreducible_components(e, tol=1e-9):
    """Number of sl2-irreducible summands = dim ker(e) for the raising matrix."""
    e = np.asarray(e, dtype=float)
    dim = e.shape[0]
    scale = max(1.0, np.max(np.abs(e)))
    if np.max(np.abs(np.linalg.matrix_power(e / scale, dim))) > 1e-9:
        raise PreconditionError("raising matrix is not nilpotent")
    s = np.linalg.svd(e, compute_uv=False)
    return int(np.sum(s <= tol * max(s[0], 1.0)))


def _flag_compatible(m, cfg, tol=1e-9):
    cuts = cfg.cuts()
    for b in range(1, len(cuts) - 1):
        k = cuts[b]
        if np.max(np.abs(m[k:, :k])) > tol:
            return False
    return True


def induced_morphism(cfg, emb):
    """Block components (xbar, ebar) of the triple in each S-factor.

    The triple's Borel pair must preserve the flag; when (x, e) do not but
    (-x, f) do, the roles are swapped.  Each xbar is projected to its
    traceless representative (the Lie algebra of a PGL block factor).
    """
    t = emb.triple
    x = np.asarray(t.x, dtype=float)
    e = np.asarray(t.e, dtype=float)
    f = np.asarray(t.f, dtype=float)
    if not (_flag_compatible(x, cfg) and _flag_compatible(e, cfg)):
        if _flag_compatible(x, cfg) and _flag_compatible(f, cfg):
            x, e = -x, f
        else:
            raise ConfigurationError(
                "the embedding's Borel direction does not preserve the flag; "
                "conjugate Q first (auto-conjugation is out of scope)")
    cuts = cfg.cuts()
    out = []
    for a, c in zip(cuts, cuts[1:]):
        xb = x[a:c, a:c].copy()
        m = c - a
        xb -= np.trace(xb) / m * np.eye(m)
        out.append((xb, e[a:c, a:c].copy()))
    return out


# --------------------------------------------------------------------------
# the classifier


def classify(cfg, emb, tol=1e-6):
    """Decide the case of the configuration.

    dim(h ∩ q) = 3 -> Case1; = 2 -> Case2, split on d = dim(h ∩ r0):
    d = 2 -> Case2_1, d = 1 (nilpotent) -> Case2_2, d = 0 -> Case2_3,
    refined by triple extension on each induced block pair (all extend ->
    Case2_3a, otherwise Case2_3b), cross-checked against the irreducible
    component count.
    """
    t = emb.triple
    h_basis = [np.asarray(t.x, float), np.asarray(t.e, float),
               np.asarray(t.f, float)]
    q = parabolic_basis(cfg)
    qh = lie_intersection(h_basis, q)
    diag = {"dim_qh": len(qh)}
    if len(qh) == 3:
        return CaseLabel("Case1", diag)
    if len(qh) != 2:
        raise ConfigurationError(
            f"dim(h ∩ q) = {len(qh)}, H is not positioned against this Q "
            "(conjugate Q to meet H; out of scope)")
    # r0 ⊂ q, so q_H ∩ r0 = h ∩ r0
    inter = lie_intersection(h_basis, radical_basis(cfg))
    diag["dim_qh_r0"] = len(inter)
    if len(inter) == 2:
        return CaseLabel("Case2_1", diag)
    if len(inter) == 1:
        ev = np.max(np.abs(np.linalg.eigvals(inter[0])))
        diag["intersection_spectral_radius"] = float(ev)
        if ev > 1e-6:
            raise ConfigurationError(
                "1-dimensional q_H ∩ r0 is not nilpotent; unsupported R0 choice")
        return CaseLabel("Case2_2", diag)
    # Case 2.3: decide decomposability by triple extension per block
    blocks = induced_morphism(cfg, emb)
    residuals = []
    for xb, eb in blocks:
        if xb.shape[0] == 1:
            residuals.append(0.0)
            continue
        _, res = extend_sl2_triple(xb, eb, tol=tol)
        residuals.append(res)
    diag["extension_residuals"] = residuals
    ncomp = count_irreducible_components(
        np.asarray(t.e, float) if _flag_compatible(np.asarray(t.e, float), cfg)
        else np.asarray(t.f, float))
    diag["irreducible_components"] = ncomp
    if max(residuals) <= tol:
        return CaseLabel("Case2_3a", diag)
    if ncomp == 1:
        # irreducible blocks always extend, so a failure here is numerical
        raise ConfigurationError(
            "irreducible embedding with failed triple extension: numerical "
            "inconsistency, refusing to label")
    return CaseLabel("Case2_3b", diag)
