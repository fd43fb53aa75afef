"""beambench: seeded EEG source-reconstruction benchmark.

Ground-truth brain activity from stable MVAR models is projected
through a spherical-head forward model, mixed with interference,
background activity and sensor noise at configured SNR levels, and
reconstructed by a bank of fifteen spatial filters whose output is
scored in signal space and in PDC/DTF connectivity space.
"""

__version__ = "0.1.0"
