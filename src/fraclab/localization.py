"""Cut-off localization: the remainder term, product rule, and g-bound monitor.

The remainder I_s(u, eta) = e L(u) + u L(e) - L(u e), e = eta - c, is the
bilinear defect of the operator's image L (operator._image) plus its own
central near-field rule, so the discrete product-rule identity closes at
quadrature order instead of collapsing to an algebraic identity.
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


def remainder_Is(u, eta, params):
    """Remainder of the cut-off product rule.

    Pointwise integral of (u(x)-u(y)) (eta(x)-eta(y)) against the kernel,
    with the operator's quadrature split: first-difference near field,
    cell-exact weighted far field, closed-form tail.  With e = eta - c,
    which vanishes on the box edge and beyond, and L(v) = d v - t * v the
    operator's image at unit spacing, e L(u) + u L(e) - L(u e) gives the
    far field and tail plus the near part w sum_{+-e} (u(x+-e) - u)(e(x+-e) - e)
    of the near weight w.  Adding -(w/2) D2u D2e per axis, with D2 the second
    difference, turns that into the central rule (w/2) (u(x+e) - u(x-e)) (e(x+e) - e(x-e)).
    u is checked as apply_fractional_laplacian checks it; eta must share its grid.
    """
    op = _kernel_for(u, params)
    if not isinstance(eta, GridFunction):
        raise TypeError("eta must be a GridFunction")
    if u.grid is not eta.grid:
        raise ValueError("u and eta must share one grid")
    grid, uv = u.grid, u.values
    ev = eta.values - _eta_pad_values(eta)
    l_u, l_e, l_ue = (_image(op.d, v, convolve(op, v)) for v in (uv, ev, uv * ev))
    out = ev * l_u + uv * l_e - l_ue
    # near field: one-sided products to central ones, -(w/2) D2u D2e per axis
    up, ep = np.pad(uv, 1), np.pad(ev, 1)
    for axis in range(grid.ndim):
        fwd = tuple(slice(2, None) if a == axis else slice(1, -1) for a in range(grid.ndim))
        bwd = tuple(slice(None, -2) if a == axis else slice(1, -1) for a in range(grid.ndim))
        out -= 0.5 * op.near * (up[fwd] - 2 * uv + up[bwd]) * (ep[fwd] - 2 * ev + ep[bwd])
    return GridFunction(grid, params.scale(grid.h) * out)


def _product_rule_gap(lhs, u, eta, a_u, a_eta, i_s):
    """max |A(u eta) - (eta A u + u A eta - I_s)| over the box, from the four images."""
    return float(np.abs(lhs - (eta * a_u + u * a_eta - i_s)).max())


def product_rule_residual(u, eta, params):
    """Max nodewise residual of the four-term cut-off identity."""
    lhs = apply_fractional_laplacian(u * eta, params)
    return _product_rule_gap(
        lhs.values, u.values, eta.values, apply_fractional_laplacian(u, params).values,
        apply_fractional_laplacian(eta, params).values, remainder_Is(u, eta, params).values)


def localized_rhs(u, eta, f, params, verify=True, residual_bound=None):
    """Right-hand side F for the cut-off product u eta, as a whole-space source.

    F = eta f + u (-Delta)^s eta - I_s(u, eta), with f read on Omega as
    solve_dirichlet reads its source (LengthMismatchError unless one value
    per Omega node, FracLabError for inf or nan) and zero outside it.
    With verify=True, ||(-Delta)^s(u eta) - F||_inf, from images formed
    once each, must stay within the product-rule residual bound
    (product_rule_residual's by default) plus the solve residual of u.
    """
    grid = u.grid
    f_full = extend_by_zero(_rhs_on_omega(f, grid), grid).values
    a_eta = apply_fractional_laplacian(eta, params).values
    i_s = remainder_Is(u, eta, params).values
    F = eta.values * f_full + (u.values * a_eta - i_s)
    if verify:
        lhs = apply_fractional_laplacian(u * eta, params).values
        a_u = apply_fractional_laplacian(u, params).values
        if residual_bound is None:
            residual_bound = _product_rule_gap(lhs, u.values, eta.values, a_u, a_eta, i_s)
        gap = float(np.abs(lhs - F)[grid.mask].max())
        solve_gap = float(np.abs(a_u - f_full)[grid.mask & (eta.values > 0)].max(initial=0.0))
        if gap > residual_bound + solve_gap + 1e-9:
            raise LocalizationError(
                f"localized source inconsistent: gap {gap:.3e} exceeds "
                f"residual bound {residual_bound:.3e} + solve gap {solve_gap:.3e}")
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
    eta = build_cutoff(grid, eta_spec)
    a_eta = apply_fractional_laplacian(eta, params).values
    g_norm = lp_norm(GridFunction(grid, u.values * a_eta - remainder_Is(u, eta, params).values), p)
    semi = gagliardo_seminorm(u, params.s, p, omega2)
    lp_o2 = lp_norm(u, p, omega2)
    sobolev = (lp_o2 ** p + semi ** p) ** (1.0 / p)
    lp_omega = lp_norm(u, p, "omega")
    return GBoundReport(params.s, p, grid.h, g_norm, sobolev, lp_omega)
