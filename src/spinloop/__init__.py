"""Deflection of a spin-1/2 particle by a magnetic dipole in a two-state
quantum superposition: exact spin algebra, square-wavepacket force
expectations, a direct Schrodinger-grid cross-check, screen-deflection
estimates and a two-wing EPR correlation model.
"""

__version__ = "0.1.0"
