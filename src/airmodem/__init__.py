"""airmodem: a software-defined acoustic modem for near-ultrasonic data links.

Modulates bit streams onto 18-19.5 kHz carriers that commodity speakers can
emit and laptop microphones can capture, using dual-channel FSK, coherent
BPSK, or differentially detected DPSK.  Includes a deterministic simulated
acoustic channel, a Monte-Carlo evaluation harness, bit-exact WAV I/O, and a
CLI for driving all of it.
"""

import types

from .channel import (
    ChannelResult,
    ChannelSpec,
    NOISE_KINDS,
    NoiseSpec,
    apply_channel,
    measure_snr_at,
    synth_noise,
)
from .errors import (
    ClippingWarning,
    ConfigurationError,
    CorruptFileError,
    IncompatibleSignalError,
    InsufficientDataError,
    ModemError,
    NoClockError,
    NyquistViolationError,
    SyncNotFoundError,
    UnsupportedFormatError,
)
from .evaluate import (
    SweepResult,
    TransmissionReport,
    compute_btsr,
    ber_estimate_from_btsr,
    random_bits,
    run_trial,
    sweep,
    sweep_to_csv,
)
from .fsk import (
    CarrierDetection,
    FskConfig,
    FskDemodResult,
    detect_carriers,
    detect_carriers_in_spectrum,
    fsk_demodulate,
    fsk_modulate,
)
from .psk import (
    DEFAULT_HEADER_BITS,
    DemodTrace,
    PskConfig,
    apply_transition_ramp,
    bpsk_demodulate_coherent,
    bpsk_modulate,
    correlate_delay,
    dpsk_demodulate,
    dpsk_encode,
    dpsk_modulate,
)
from .signals import AudioSignal, Spectrum, band_power, generate_tone, power_spectrum
from .wavfile import read_wav, write_wav

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
