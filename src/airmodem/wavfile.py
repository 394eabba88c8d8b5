"""Bit-exact 16-bit PCM WAV reading and writing.

Samples scale symmetrically by 32767 so +-1.0 round-trips to +-32767.  The
standard library's ``wave`` writes the fixed 44-byte header with no metadata,
so output files are byte-identical across runs.  The reader reads the file
once and walks its chunks in memory; it stays hand-written because ``wave``'s
reader refuses data before fmt and lets a partial chunk header or a wrong
block alignment through.  Concurrent reads are safe; concurrent writes to the
same path are undefined.
"""

import struct
import warnings
import wave

import numpy as np

from .errors import (
    ClippingWarning,
    CorruptFileError,
    IncompatibleSignalError,
    UnsupportedFormatError,
)
from .signals import AudioSignal

_PCM_TAG = 1
_BITS_PER_SAMPLE = 16
_SCALE = 32767.0


def write_wav(signal: AudioSignal, path) -> None:
    """Write a signal as 16-bit PCM WAV (interleaved channels).

    A NaN or infinite sample raises IncompatibleSignalError.  Samples outside
    [-1, 1] are clipped first; a ClippingWarning reports how many.  Conversion
    is round(sample * 32767), which stays in int16 range.
    """
    samples = signal.samples if signal.channel_count == 2 else signal.samples[np.newaxis, :]
    if not np.isfinite(samples).all():
        raise IncompatibleSignalError(f"cannot write non-finite samples to {path}")
    clipped = np.clip(samples, -1.0, 1.0)
    clip_count = int(np.count_nonzero(clipped != samples))
    if clip_count:
        warnings.warn(
            f"{clip_count} samples clipped to [-1, 1] while writing {path}",
            ClippingWarning,
            stacklevel=2,
        )
    pcm = np.round(clipped * _SCALE).astype(np.int16)  # native order: wave writes little-endian
    # open first: wave.open would take a pathlib.Path for a file object
    with open(path, "wb") as handle, wave.open(handle, "wb") as out:
        out.setnchannels(signal.channel_count)
        out.setsampwidth(_BITS_PER_SAMPLE // 8)
        out.setframerate(signal.sample_rate_hz)
        out.writeframes(pcm.T.tobytes())  # frame-major: L R L R ...


def read_wav(path) -> AudioSignal:
    """Read a 16-bit PCM WAV into an AudioSignal scaled by 1/32767, with the
    file's sample rate and channel count.

    Non-PCM format tags and bit depths other than 16 raise
    UnsupportedFormatError; truncated or empty chunks raise CorruptFileError.
    Unknown chunks (LIST, fact, ...) are skipped.
    """
    with open(path, "rb") as handle:
        raw = memoryview(handle.read())
    if len(raw) < 12:
        raise CorruptFileError("file truncated while reading RIFF header")
    riff, _riff_size, form = struct.unpack_from("<4sI4s", raw)
    if riff != b"RIFF" or form != b"WAVE":
        raise UnsupportedFormatError(f"{path} is not a RIFF/WAVE file")
    fmt = data = None
    offset = 12
    while offset < len(raw):
        if len(raw) - offset < 8:
            raise CorruptFileError("file truncated inside a chunk header")
        chunk_id, chunk_size = struct.unpack_from("<4sI", raw, offset)
        body = raw[offset + 8 : offset + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise CorruptFileError(f"fmt chunk too small ({chunk_size} bytes)")
            if len(body) != chunk_size:
                raise CorruptFileError("file truncated while reading fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body)
        elif chunk_id == b"data":
            if chunk_size == 0:
                raise CorruptFileError("data chunk is empty")
            if len(body) != chunk_size:
                raise CorruptFileError("file truncated while reading data chunk")
            data = body
        offset += 8 + chunk_size + chunk_size % 2  # RIFF chunks are word-aligned
    if fmt is None:
        raise CorruptFileError("missing fmt chunk")
    if data is None:
        raise CorruptFileError("missing data chunk")
    tag, channels, sample_rate, _byte_rate, block_align, bits = fmt
    if tag != _PCM_TAG:
        raise UnsupportedFormatError(f"unsupported format tag {tag} (only PCM=1)")
    if bits != _BITS_PER_SAMPLE:
        raise UnsupportedFormatError(f"unsupported bit depth {bits} (only 16)")
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"unsupported channel count {channels}")
    if block_align != channels * 2 or len(data) % block_align:
        raise CorruptFileError("data chunk size does not match the frame layout")
    samples = np.frombuffer(data, dtype="<i2") / _SCALE
    if channels == 2:
        samples = samples.reshape(-1, 2).T
    return AudioSignal(samples, sample_rate)
