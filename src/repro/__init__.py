"""CASTANET reproduction: system-level co-verification for ATM hardware.

Reproduction of G. Post, A. Müller, T. Grötker, "A System-Level
Co-Verification Environment for ATM Hardware Design", DATE 1998.

Subpackages:

* :mod:`repro.netsim` — OPNET-equivalent discrete-event network simulator.
* :mod:`repro.traffic` — traffic model library (CBR, Poisson, on-off,
  MMPP, MPEG traces).
* :mod:`repro.atm` — ATM model suite (cells, HEC, switching, policing,
  accounting reference algorithm).
* :mod:`repro.hdl` — VSS-equivalent event-driven HDL simulation kernel.
* :mod:`repro.rtl` — RTL device-under-test designs built on the HDL kernel.
* :mod:`repro.board` — RAVEN-equivalent hardware test board model.
* :mod:`repro.core` — CASTANET itself: simulator coupling, conservative
  synchronisation, abstraction interfaces, comparison machinery.
* :mod:`repro.analysis` — result collection and report rendering.
* :mod:`repro.reference` — test oracles for the HDL side's production
  path; imported by tests only, never by the package.
"""

__version__ = "1.0.0"
