"""Host-speed calibration for timings taken on a shared machine.

The benchmark's host is a virtual machine whose speed swings by up to 1.9x,
for seconds to minutes at a time, with no steal time visible to the guest.
A fixed kernel, timed every few ops through a run, tracks those swings:
multiplying an op's seconds by ``REFERENCE_S / kernel seconds nearby``
gives its seconds at a fixed reference host speed, so runs of the same code
agree.  The kernel mixes what the ops do (a large FFT pair, elementwise
maths and a Python loop of small FFTs with a band mask) and uses numpy only,
never airmodem, so a change to airmodem cannot move it.  The raw wall-clock
figures are kept alongside.
"""

import statistics
import time

REFERENCE_S = 0.030  # kernel seconds at the reference host speed
EVERY = 4  # ops per kernel sample
WINDOW = 2  # samples on each side pooled into one op's scale


class HostSpeed:
    """Times the calibration kernel and scales seconds to reference speed."""

    def __init__(self):
        import numpy

        self._np = numpy
        self._x = numpy.random.default_rng(0).standard_normal(3 * 2**17)
        self._phase = 2 * numpy.pi * 0.2 * numpy.arange(self._x.size)
        self._bins = numpy.arange(2049)
        self.samples = []

    def sample(self):
        """Run the kernel once; keeps and returns its seconds."""
        np, x = self._np, self._x
        start = time.perf_counter()
        y = np.fft.irfft(np.fft.rfft(x), x.size) * np.cos(self._phase)
        peak = 0.0
        for i in range(48):
            power = np.abs(np.fft.rfft(y[i * 4096 : (i + 1) * 4096])) ** 2
            band = (self._bins > 1800) & (self._bins < 1900)
            peak = max(peak, float(power[band].mean()))
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scale(self, index):
        """Reference seconds per second around sample ``index``: the median
        of the samples within WINDOW of it sets the local host speed."""
        window = self.samples[max(0, index - WINDOW) : index + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
