"""Finite-difference differential geometry of parametrized hypersurfaces.

Independent verification engine: given nothing but the points of the
hypersurface on a stencil, compute second-order central-difference jets, the
Gauss map N = (O_s x O_t x O_w)/||.||, the fundamental forms
g_ij = <O_i, O_j> and h_ij = <O_ij, N>, the shape operator S = g^{-1} h and
the curvatures

    K = eps * det(h)/det(g),        H = tr(S) / (3*eps),

with eps = <N, N> measured, not assumed.  The 3x3 inverse goes through the
adjugate with an explicit determinant guard.  Because the evaluator is
differentiated numerically, the engine shares nothing with the closed-form
curvature path it is used to check.

The engine works on batches: ``stencil`` lays out the 19-point stencils of
N points (``grid_stencil`` those of a grid, as parameter tables and
broadcast index blocks into them), the caller evaluates all 19 N points in
one call, and ``stencil_jets``, ``forms_batch`` and ``curvatures_batch``
turn them into (N, ...) arrays with per-point masks instead of exceptions.
Jets and normals are component-major behind their (N, 4) shape (``x[:, k]``
is contiguous), and g, h, their determinants and the adjugate are computed
from the six distinct entries of each.  The one-point functions
(``numeric_jet``, ``fundamental_forms``, ``curvatures_numeric``) give the
batch of one point and raise at singular points.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .minkowski import inner_rows, triple_cross_rows

#: Default finite-difference step: balances O(step^2) truncation against
#: double-precision cancellation in the second differences.
DEFAULT_STEP = 1e-3

#: Scaled threshold for a degenerate tangent frame / singular metric.
DEGENERATE_TOL = 1e-10
METRIC_DET_TOL = 1e-10

#: Offsets (ds, dt, dw) of the 19-point stencil in units of the step.  The
#: center comes first, so the first N entries of a stencil batch are the
#: points themselves.
STENCIL = ((0, 0, 0),
           (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
           (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
           (1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1),
           (0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1))

#: The (19, 1, 1) s and (t, w) blocks of STENCIL in ``grid_stencil``'s
#: tables (see there).
_S_BLOCK, _T_BLOCK, _W_BLOCK = (np.array(STENCIL) % 3).T[:, :, None, None]
_TW_BLOCK = 3 * _T_BLOCK + _W_BLOCK
#: The distinct entries (i, j), i <= j, of a symmetric 3 x 3 matrix, in
#: the order of the second partials (ss, st, sw, tt, tw, ww).
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class OracleError(Exception):
    pass


class DegenerateTangentError(OracleError):
    """Tangent vectors are (numerically) linearly dependent."""


class SingularMetricError(OracleError):
    """det[g] vanishes; the shape operator is undefined."""


class SurfaceJet(NamedTuple):
    """Points, first and second central-difference partials of the map at
    N points, as (N, 4) arrays."""

    point: np.ndarray
    d_s: np.ndarray
    d_t: np.ndarray
    d_w: np.ndarray
    d_ss: np.ndarray
    d_st: np.ndarray
    d_sw: np.ndarray
    d_tt: np.ndarray
    d_tw: np.ndarray
    d_ww: np.ndarray


class FundamentalForms(NamedTuple):
    """First/second fundamental forms (N, 3, 3), their determinants (N,),
    the unit normals (N, 4) and their causal signs eps = sign <N, N> (N,),
    nan where a normal is not finite, at N points."""

    g: np.ndarray
    h: np.ndarray
    detg: np.ndarray
    deth: np.ndarray
    normal: np.ndarray
    eps: np.ndarray


# ---------------------------------------------------------------------------
# Batches

def stencil(s, t, w, step: float = DEFAULT_STEP):
    """Parameter arrays (S, T, W) of the stencils around N points, each of
    length 19 N in stencil-major order (see STENCIL)."""
    if not 0 < step < np.inf:  # also refuses nan
        raise ValueError(f"step must be finite and positive, got {step}")
    offsets = np.array(STENCIL, dtype=float)
    return tuple(
        (np.asarray(x, dtype=float).ravel()[None, :]
         + offsets[:, k, None] * step).ravel()
        for k, x in enumerate((s, t, w)))


def grid_stencil(s, t, w, step: float):
    """The stencils of the grid of s values by (t, w) pairs (t[j], w[j]),
    s slowest, as the tables (S, T, W) and index blocks (s_ix, tw_ix) of
    shapes (19, n_s, 1) and (19, 1, n_tw) into them: raveled, the
    broadcast of the blocks indexes the 19 N rows of ``stencil`` on the N
    grid points, with their bits.

    S is (s, s + h, s - h), so an s offset d falls in block d % 3; the
    (t, w) pairs at the offset (dt, dw) are block 3 (dt % 3) + dw % 3.
    """
    if not 0 < step < np.inf:  # also refuses nan
        raise ValueError(f"step must be finite and positive, got {step}")
    s, t, w = (np.asarray(x, dtype=float).ravel() for x in (s, t, w))
    d = np.array([0.0, 1.0, -1.0])[:, None] * step  # offset d in row d % 3
    n_s, n_tw = len(s), len(t)
    s_ix = _S_BLOCK * n_s + np.arange(n_s)[:, None]
    tw_ix = _TW_BLOCK * n_tw + np.arange(n_tw)
    tables = ((s + d).ravel(), np.repeat(t + d, 3, axis=0).ravel(),
              np.tile(w + d, (3, 1)).ravel())
    return tables, (s_ix, tw_ix)


def stencil_jets(points, step: float) -> SurfaceJet:
    """Second-order central differences from the (19 N, 4) points of a
    ``stencil`` batch."""
    p = np.asarray(points, dtype=float).reshape(len(STENCIL), -1, 4)
    h = step
    c = p[0]

    def first(fp, fm):
        return (fp - fm) / (2.0 * h)

    def second(fp, fm):
        return (fp - 2.0 * c + fm) / (h * h)

    def mixed(pp, pm, mp, mm):
        return (pp - pm - mp + mm) / (4.0 * h * h)

    return SurfaceJet(
        point=c,
        d_s=first(p[1], p[2]), d_t=first(p[3], p[4]), d_w=first(p[5], p[6]),
        d_ss=second(p[1], p[2]), d_tt=second(p[3], p[4]),
        d_ww=second(p[5], p[6]),
        d_st=mixed(*p[7:11]), d_sw=mixed(*p[11:15]), d_tw=mixed(*p[15:19]),
    )


def _det3(m00, m01, m02, m11, m12, m22):
    """Determinant of a symmetric 3 x 3 matrix along its first row."""
    return (m00 * (m11 * m22 - m12 * m12)
            - m01 * (m01 * m22 - m12 * m02)
            + m02 * (m01 * m12 - m11 * m02))


def _symmetric(m00, m01, m02, m11, m12, m22):
    """The (N, 3, 3) view of the (3, 3, N) matrices of six (N,) entries."""
    return np.moveaxis(np.array([[m00, m01, m02], [m01, m11, m12],
                                 [m02, m12, m22]]), -1, 0)


def forms_batch(jet: SurfaceJet):
    """Normals, g, h and their determinants from batched jets, and the
    mask of points whose tangent frame is degenerate."""
    tangents = (jet.d_s, jet.d_t, jet.d_w)
    with np.errstate(all="ignore"):
        raw = triple_cross_rows(*tangents)
        q = np.abs(inner_rows(raw, raw))
        longest = np.maximum.reduce([
            np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]
                    + v[:, 3] * v[:, 3]) for v in tangents])
        scale = np.fmax(1.0, longest * longest * longest)
        length = np.sqrt(q)
        degenerate = length <= DEGENERATE_TOL * scale
        normal = (raw.T / length).T
        eps = np.sign(inner_rows(normal, normal))  # nan where N is not finite
        g = [inner_rows(tangents[i], tangents[j]) for i, j in _UPPER]
        h = [inner_rows(d, normal) for d in (jet.d_ss, jet.d_st, jet.d_sw,
                                             jet.d_tt, jet.d_tw, jet.d_ww)]
        detg, deth = _det3(*g), _det3(*h)
    return FundamentalForms(g=_symmetric(*g), h=_symmetric(*h), detg=detg,
                            deth=deth, normal=normal, eps=eps), degenerate


def curvatures_batch(forms: FundamentalForms):
    """K = eps det(h)/det(g), H = tr(g^{-1} h)/(3 eps) from batched forms,
    and the mask of points whose metric is singular."""
    g00, g01, g02, g11, g12, g22 = (forms.g[:, i, j] for i, j in _UPPER)
    h00, h01, h02, h11, h12, h22 = (forms.h[:, i, j] for i, j in _UPPER)
    with np.errstate(all="ignore"):
        largest = np.fmax(1.0, np.max(np.abs(forms.g), axis=(-2, -1)))
        singular = (np.abs(forms.detg)
                    <= METRIC_DET_TOL * largest * largest * largest)
        K = forms.eps * forms.deth / forms.detg
        # tr(S) = tr(adj(g) h) / det(g), adj(g) symmetric like g
        a00, a01, a02 = (g11 * g22 - g12 * g12, g02 * g12 - g01 * g22,
                         g01 * g12 - g02 * g11)
        a11, a12, a22 = (g00 * g22 - g02 * g02, g02 * g01 - g00 * g12,
                         g00 * g11 - g01 * g01)
        p01, p02, p12 = a01 * h01, a02 * h02, a12 * h12
        tr = (0.0 + a00 * h00 + p01 + p02 + p01 + a11 * h11 + p12 + p02
              + p12 + a22 * h22)
        H = tr / forms.detg / (3.0 * forms.eps)
    return K, H, singular


# ---------------------------------------------------------------------------
# One point

def numeric_jet(surface, s: float, t: float, w: float,
                step: float = DEFAULT_STEP) -> SurfaceJet:
    """``stencil_jets`` of the one point (s, t, w), from ``surface(s, t, w)``
    (any 4-sequence) at its 19-point stencil: a batch of one."""
    params = zip(*(x.tolist() for x in stencil([s], [t], [w], step)))
    return stencil_jets([surface(*p) for p in params], step)


def fundamental_forms(jet: SurfaceJet) -> FundamentalForms:
    """``forms_batch`` of the jets; raises DegenerateTangentError where a
    tangent frame is degenerate."""
    forms, degenerate = forms_batch(jet)
    if degenerate.any():
        raise DegenerateTangentError(
            "tangent frame is degenerate: ||O_s x O_t x O_w|| is below "
            "its scaled tolerance")
    return forms


def curvatures_numeric(forms: FundamentalForms):
    """``curvatures_batch`` of the forms as a pair of (N,) arrays K, H;
    raises SingularMetricError where a metric is singular."""
    from .canal import CurvaturePair

    K, H, singular = curvatures_batch(forms)
    if singular.any():
        detg = float(forms.detg[np.argmax(singular)])
        raise SingularMetricError(f"det[g] = {detg} is singular")
    return CurvaturePair(K, H)
