"""airmodem: a software-defined acoustic modem for near-ultrasonic data links.

Modulates bit streams onto 18-19.5 kHz carriers that commodity speakers can
emit and laptop microphones can capture, using dual-channel FSK, coherent
BPSK, or differentially detected DPSK.  Includes a deterministic simulated
acoustic channel, a Monte-Carlo evaluation harness, bit-exact WAV I/O, and a
CLI for driving all of it.
"""

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
    EmptyBandWarning,
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
    bipolar,
    bpsk_demodulate_coherent,
    bpsk_modulate,
    correlate_delay,
    dpsk_demodulate,
    dpsk_encode,
    dpsk_modulate,
    estimate_delay,
)
from .signals import AudioSignal, Spectrum, band_power, generate_tone, mix, power_spectrum
from .wavfile import WavSpec, read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioSignal",
    "ChannelResult",
    "ChannelSpec",
    "CarrierDetection",
    "ClippingWarning",
    "ConfigurationError",
    "CorruptFileError",
    "DEFAULT_HEADER_BITS",
    "DemodTrace",
    "EmptyBandWarning",
    "FskConfig",
    "FskDemodResult",
    "IncompatibleSignalError",
    "InsufficientDataError",
    "ModemError",
    "NOISE_KINDS",
    "NoClockError",
    "NoiseSpec",
    "NyquistViolationError",
    "PskConfig",
    "Spectrum",
    "SweepResult",
    "SyncNotFoundError",
    "TransmissionReport",
    "UnsupportedFormatError",
    "WavSpec",
    "apply_channel",
    "apply_transition_ramp",
    "band_power",
    "ber_estimate_from_btsr",
    "bipolar",
    "bpsk_demodulate_coherent",
    "bpsk_modulate",
    "compute_btsr",
    "correlate_delay",
    "detect_carriers",
    "detect_carriers_in_spectrum",
    "dpsk_demodulate",
    "dpsk_encode",
    "dpsk_modulate",
    "estimate_delay",
    "fsk_demodulate",
    "fsk_modulate",
    "generate_tone",
    "measure_snr_at",
    "mix",
    "power_spectrum",
    "random_bits",
    "read_wav",
    "run_trial",
    "sweep",
    "sweep_to_csv",
    "synth_noise",
    "write_wav",
]
