"""Configs that stress the spectrum path, shared by the tests that bound it.

`config` is the packaged baseline at a given truncation, phonons and source,
unnormalized.  `stressed(name)` is one of `STRESSED` at n_max_y=6: the y
couplings g1y and g2y tripled, kappa_y = 4 g1y (an exceptional point of the
y mode and its emitter coupling), or the drive calibrated to a 300 ueV
doublet splitting.
"""

from dataclasses import replace

from bixsim.system import calibrate_drive, default_config

BASELINE_OMEGA = 252.83669951857598  # drive of the packaged baseline
STRESSED = ("g-tripled", "exceptional-point", "splitting-300")


def config(n_max_y, phonons=True, source="y-dipole", **kw):
    cfg = default_config()
    cfg = replace(
        cfg,
        drive=replace(cfg.drive, omega=BASELINE_OMEGA),
        phonon=replace(cfg.phonon, enable=phonons),
        numerics=replace(cfg.numerics, n_max_y=n_max_y),
        source=source,
        normalize=False,
    )
    return replace(cfg, **kw) if kw else cfg


def stressed(name):
    cfg = config(6)
    c = cfg.couplings
    if name == "g-tripled":
        return replace(cfg, couplings=replace(c, g1y=3.0 * c.g1y, g2y=3.0 * c.g2y))
    if name == "exceptional-point":
        return replace(cfg, rates=replace(cfg.rates, kappa_y=4.0 * c.g1y))
    if name == "splitting-300":
        return calibrate_drive(cfg, 300.0)  # a 300 ueV doublet splitting
    raise ValueError(f"unknown stressed config {name!r}")
