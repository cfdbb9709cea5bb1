"""Photorefractive effects in LiNbO3 integrated photonic circuits.

Forward models for pump-induced refractive-index shifts and their impact on
waveguide Fabry-Perot cavities, directional couplers, homodyne squeezing
measurements, and quasi-phase-matched SPDC, plus nonlinear least-squares
pipelines to recover the index-shift law from measured data.  The root
exports only ``__version__``; import the submodules (``photoref.fit``, ...).
"""

__version__ = "0.1.0"
