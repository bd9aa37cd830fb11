"""HACC-style FFT substrate.

The paper stresses that HACC ships "its own scalable, high performance 3-D
FFT routine implemented using a 2-D pencil decomposition".  That claim is
about the distributed transform; the 1-D transforms along each pencil's
local axis are ``numpy.fft`` (HACC 2014 likewise hands them to a library).

* :mod:`repro.fft.pencil` — the 2-D pencil-decomposed distributed 3-D FFT
  (``Nrank < N^2``) built from interleaved transposes and sequential 1-D
  FFT passes over the simulated communicator.
* :mod:`repro.fft.slab` — the original slab-decomposed FFT
  (``Nrank < N``), kept as the Roadrunner-era baseline for Fig. 6.
"""

from repro.fft.pencil import PencilFFT
from repro.fft.slab import SlabFFT

__all__ = ["PencilFFT", "SlabFFT"]
