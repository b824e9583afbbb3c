"""Cut-off localization: the remainder term, product rule, and g-bound monitor.

The remainder shares the far-field and tail quadrature of the operator
but uses its own near-field rule (a product of central first differences),
so the discrete product-rule identity closes at quadrature order instead
of collapsing to an algebraic identity.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import LocalizationError
from .gridfn import GridFunction
from .operator import apply_fractional_laplacian, convolve, toeplitz_operator
from .regions import require_nested
from .spaces import gagliardo_seminorm, lp_norm


def _eta_pad_values(eta):
    """Continuation of eta beyond the box: the one value eta takes on the
    whole box edge (zero when exterior-zero), so that a globally constant
    eta is exact."""
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
    which vanishes on the box edge and beyond, the far field and tail
    expand into u e d - u (t * e) - e (t * u) + t * (u e) for the far
    kernel t and its diagonal d.
    """
    if not isinstance(u, GridFunction) or not isinstance(eta, GridFunction):
        raise TypeError("u and eta must be GridFunctions")
    if not u.dirichlet:
        raise ValueError("u must be exterior-zero (Dirichlet-extended)")
    if u.grid is not eta.grid:
        raise ValueError("u and eta must share one grid")
    grid = u.grid
    uv = u.values
    ev = eta.values - _eta_pad_values(eta)
    op = toeplitz_operator(grid.ndim, grid.n, grid.h, params.s, near=False)
    out = (uv * ev * op.d - uv * convolve(op, ev) - ev * convolve(op, uv)
           + convolve(op, uv * ev))
    # near field: products of central first differences along each axis
    up, ep = np.pad(uv, 1), np.pad(ev, 1)
    for axis in range(grid.ndim):
        fwd = tuple(slice(2, None) if a == axis else slice(1, -1) for a in range(grid.ndim))
        bwd = tuple(slice(None, -2) if a == axis else slice(1, -1) for a in range(grid.ndim))
        out += 0.5 * op.near * (up[fwd] - up[bwd]) * (ep[fwd] - ep[bwd])
    return GridFunction(grid, params.cns * out)


def product_rule_residual(u, eta, params):
    """Max nodewise residual of the four-term cut-off identity."""
    lhs = apply_fractional_laplacian(u * eta, params)
    rhs = (eta.values * apply_fractional_laplacian(u, params).values
           + u.values * apply_fractional_laplacian(eta, params).values
           - remainder_Is(u, eta, params).values)
    return float(np.abs(lhs.values - rhs).max())


def localized_rhs(u, eta, f, params, verify=True, residual_bound=None):
    """Right-hand side F for the cut-off product u eta, as a whole-space source.

    F = eta f + u (-Delta)^s eta - I_s(u, eta).  With verify=True the
    defining identity is checked: ||(-Delta)^s(u eta) - F||_inf must stay
    within the product-rule residual bound plus the solve residual of u.
    """
    grid = u.grid
    f_full = np.zeros(grid.shape)
    if isinstance(f, GridFunction):
        f_full[:] = f.values
    else:
        f_full[grid.mask] = np.asarray(f, float).ravel()
    F = (eta.values * f_full
         + u.values * apply_fractional_laplacian(eta, params).values
         - remainder_Is(u, eta, params).values)
    if verify:
        if residual_bound is None:
            residual_bound = product_rule_residual(u, eta, params)
        lhs = apply_fractional_laplacian(u * eta, params).values
        gap = float(np.abs(lhs - F)[grid.mask].max())
        solve_gap = float(np.abs(
            apply_fractional_laplacian(u, params).values - f_full)[grid.mask & (eta.values > 0)].max(initial=0.0))
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
    eta_region: str
    omega2_region: str
    g_norm: float
    sobolev_term: float
    lp_term: float

    @property
    def ratio(self):
        denom = self.sobolev_term + self.lp_term
        return 0.0 if denom == 0 else self.g_norm / denom

    CSV_HEADER = ("s", "p", "h", "eta_region", "omega2_region",
                  "g_norm", "sobolev_term", "lp_term", "ratio")

    def csv_row(self):
        return (f"{self.s:.17g}", f"{self.p:.17g}", f"{self.h:.17g}",
                self.eta_region, self.omega2_region,
                f"{self.g_norm:.17g}", f"{self.sobolev_term:.17g}",
                f"{self.lp_term:.17g}", f"{self.ratio:.17g}")


def g_bound_monitor(u, eta_spec, params, omega2, p):
    """Empirical constant of the localization bound.

    g = u (-Delta)^s eta - I_s(u, eta); the report records
    ||g||_p / (||u||_{W^{s,p}(omega2)} + ||u||_{L^p(Omega)}).  Only
    finiteness and refinement stability are meaningful, not the value.
    """
    from .gridfn import build_cutoff

    grid = u.grid
    eta = build_cutoff(grid, eta_spec)
    require_nested(eta_spec.outer, omega2, "g-bound outer/omega2")
    require_nested(omega2, grid.omega, "g-bound omega2/Omega")
    g = (u.values * apply_fractional_laplacian(eta, params).values
         - remainder_Is(u, eta, params).values)
    g_norm = lp_norm(GridFunction(grid, g), p)
    semi = gagliardo_seminorm(u, params.s, p, omega2)
    lp_o2 = lp_norm(u, p, omega2)
    sobolev = (lp_o2 ** p + semi ** p) ** (1.0 / p)
    lp_omega = lp_norm(u, p, "omega")
    return GBoundReport(params.s, p, grid.h,
                        str(eta_spec.outer.describe()), str(omega2.describe()),
                        g_norm, sobolev, lp_omega)


def append_g_bound_csv(path, reports):
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        wr = csv.writer(fh)
        if new:
            wr.writerow(GBoundReport.CSV_HEADER)
        for r in reports:
            wr.writerow(r.csv_row())
