"""Reference spectrum for bit-for-bit tests of `cyclic._spectra`.

This is the per-row `spectrum` the library used before it stacked one k's
rows: `np.roots` on the characteristic polynomial, three `np.polyval`
Newton polishes, one `eigvals` of `build_A`, and a greedy root-to-eigenvalue
pairing, all for a single (k, beta, case).  It returns the report and the
worst pairing distance, for valid arguments only.
"""

import numpy as np

from rscycle.cyclic import Case, SpectrumReport, build_A, verify_root_requirement


def char_roots(k, b):
    """Roots of lam^(k-1) + (1+b)(lam^(k-2) + ... + 1), Newton-polished."""
    coeffs = np.concatenate(([1.0], np.full(k - 1, 1.0 + b)))
    roots = np.roots(coeffs)
    dcoeffs = np.polyder(coeffs)
    for _ in range(3):
        val = np.polyval(coeffs, roots)
        der = np.polyval(dcoeffs, roots)
        step = np.where(np.abs(der) > 0, val / np.where(der == 0, 1.0, der), 0.0)
        roots = roots - step
    return roots


def spectrum(k, beta, case):
    """(SpectrumReport, worst pairing distance) of one row."""
    b_eff = beta if case is Case.I else 0.0
    roots = char_roots(k, b_eff)
    eig = np.linalg.eigvals(build_A(k, beta, case))
    pool = list(range(eig.size))
    worst = 0.0
    for z in roots:
        dists = [abs(z - eig[j]) for j in pool]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        pool.pop(j)
    order = np.argsort(np.angle(roots), kind="stable")
    roots = roots[order]
    residuals = np.array([verify_root_requirement(z, k, b_eff) for z in roots])
    mods = np.abs(roots)
    report = SpectrumReport(eigenvalues=roots, spectral_radius=float(mods.max()),
                            min_modulus=float(mods.min()), residuals=residuals,
                            dual_gap=float(worst))
    return report, worst
