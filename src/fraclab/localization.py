"""Cut-off localization: the remainder term, product rule, and g-bound monitor.

The remainder I_s(u, eta) = e L(u) + u L(e) - L(u e), e = eta - c, is the
bilinear defect of the operator's image L (operator._image) plus its own
central near-field rule, so the discrete product-rule identity closes at
quadrature order instead of collapsing to an algebraic identity.  _cutoff_pass
forms L(u), L(e), L(u e) and I_s once for remainder_Is, localized_rhs and g_bound_monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LocalizationError
from .elliptic import _rhs_on_omega
from .gridfn import GridFunction, build_cutoff, extend_by_zero
from .operator import _image, _kernel_for, apply_fractional_laplacian, convolve
from .spaces import gagliardo_seminorm, lp_norm


def _eta_pad_values(eta):
    """Continuation of eta beyond the box: the one value eta takes on the whole
    box edge (zero when exterior-zero), so that a globally constant eta is exact."""
    edge = np.ones(eta.values.shape, dtype=bool)
    edge[(slice(1, -1),) * edge.ndim] = False
    edge = eta.values[edge]
    if np.ptp(edge) != 0.0:
        raise ValueError("eta must be exterior-zero or take one value on the whole box edge")
    return float(edge[0])


def _cutoff_pass(u, eta, params):
    """(scale, (L(u), L(e), L(u e)), I_s(u, eta)), one convolution per unit-spacing image L.

    With e = eta - c, zero on the box edge and beyond, I_s integrates (u(x)-u(y)) (e(x)-e(y))
    against the kernel in the operator's quadrature split: e L(u) + u L(e) - L(u e) is the
    far field and tail plus the near part w sum_{+-e} (u(x+-e) - u)(e(x+-e) - e) of the near
    weight w, and -(w/2) D2u D2e per axis (D2 the second difference) makes that the central
    rule (w/2) (u(x+e) - u(x-e)) (e(x+e) - e(x-e)); scale = C h^(-2s) is the images' factor.
    u is checked as apply_fractional_laplacian checks it; eta must share its grid."""
    op = _kernel_for(u, params)
    if not isinstance(eta, GridFunction):
        raise TypeError("eta must be a GridFunction")
    if u.grid is not eta.grid:
        raise ValueError("u and eta must share one grid")
    grid, uv = u.grid, u.values
    ev = eta.values - _eta_pad_values(eta)
    images = l_u, l_e, l_ue = tuple(_image(op.d, v, convolve(op, v)) for v in (uv, ev, uv * ev))
    out = ev * l_u + uv * l_e - l_ue
    # near field: one-sided products to central ones, -(w/2) D2u D2e per axis
    up, ep = np.pad(uv, 1), np.pad(ev, 1)
    for axis in range(grid.ndim):
        fwd = tuple(slice(2, None) if a == axis else slice(1, -1) for a in range(grid.ndim))
        bwd = tuple(slice(None, -2) if a == axis else slice(1, -1) for a in range(grid.ndim))
        out -= 0.5 * op.near * (up[fwd] - 2 * uv + up[bwd]) * (ep[fwd] - 2 * ev + ep[bwd])
    scale = params.scale(grid.h)
    return scale, images, scale * out


def remainder_Is(u, eta, params):
    """Remainder of the cut-off product rule, I_s(u, eta) of _cutoff_pass."""
    return GridFunction(u.grid, _cutoff_pass(u, eta, params)[2])


def _product_rule_gap(lhs, u, eta, a_u, a_eta, i_s):
    """max |A(u eta) - (eta A u + u A eta - I_s)| over the box, from the four images."""
    return float(np.abs(lhs - (eta * a_u + u * a_eta - i_s)).max())


def product_rule_residual(u, eta, params):
    """Max nodewise residual of the four-term cut-off identity.  It calls the public
    apply_fractional_laplacian and remainder_Is, not _cutoff_pass (6 convolutions, not 3):
    the benchmark traces those two functions, and this is their one caller there."""
    lhs = apply_fractional_laplacian(u * eta, params)
    return _product_rule_gap(
        lhs.values, u.values, eta.values, apply_fractional_laplacian(u, params).values,
        apply_fractional_laplacian(eta, params).values, remainder_Is(u, eta, params).values)


def localized_rhs(u, eta, f, params):
    """Whole-space source F = eta f + u (-Delta)^s eta - I_s(u, eta) of the cut-off product u eta.

    f is read on Omega as solve_dirichlet reads its source (LengthMismatchError unless one
    value per Omega node, FracLabError for inf or nan) and zero outside it; eta must be
    exterior-zero (ValueError before any convolution).  From one _cutoff_pass's images,
    ||(-Delta)^s(u eta) - F||_inf on Omega must stay within the product-rule residual plus
    the solve residual of u (LocalizationError otherwise)."""
    grid = u.grid
    f_full = extend_by_zero(_rhs_on_omega(f, grid), grid).values
    _kernel_for(eta, params)  # eta is checked as apply_fractional_laplacian checks it
    scale, images, i_s = _cutoff_pass(u, eta, params)
    a_u, a_eta, lhs = (scale * image for image in images)
    F = eta.values * f_full + (u.values * a_eta - i_s)
    bound = _product_rule_gap(lhs, u.values, eta.values, a_u, a_eta, i_s)
    gap = float(np.abs(lhs - F)[grid.mask].max())
    solve_gap = float(np.abs(a_u - f_full)[grid.mask & (eta.values > 0)].max(initial=0.0))
    if gap > bound + solve_gap + 1e-9:
        raise LocalizationError(
            f"localized source inconsistent: gap {gap:.3e} exceeds "
            f"residual bound {bound:.3e} + solve gap {solve_gap:.3e}")
    return GridFunction(grid, F)


@dataclass(frozen=True)
class GBoundReport:
    s: float
    p: float
    h: float
    g_norm: float
    sobolev_term: float
    lp_term: float

    @property
    def ratio(self):
        denom = self.sobolev_term + self.lp_term
        return 0.0 if denom == 0 else self.g_norm / denom


def g_bound_monitor(u, eta_spec, params, p):
    """Empirical constant of the localization bound.

    g = u (-Delta)^s eta - I_s(u, eta) for the cut-off eta of eta_spec; the report
    records ||g||_p / (||u||_{W^{s,p}(omega2)} + ||u||_{L^p(Omega)}) on eta_spec.omega2,
    which CutoffSpec and build_cutoff nest between the outer region and Omega.  Only
    finiteness and refinement stability are meaningful, not the value.
    """
    grid = u.grid
    omega2 = eta_spec.omega2
    if omega2 is None:
        raise ValueError("the g-bound monitor needs a cut-off with omega2")
    scale, (_, l_eta, _), i_s = _cutoff_pass(u, build_cutoff(grid, eta_spec), params)
    g_norm = lp_norm(GridFunction(grid, u.values * (scale * l_eta) - i_s), p)
    semi = gagliardo_seminorm(u, params.s, p, omega2)
    lp_o2 = lp_norm(u, p, omega2)
    sobolev = (lp_o2 ** p + semi ** p) ** (1.0 / p)
    lp_omega = lp_norm(u, p, "omega")
    return GBoundReport(params.s, p, grid.h, g_norm, sobolev, lp_omega)
