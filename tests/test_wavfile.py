"""Tests for bit-exact PCM WAV reading and writing."""

import struct

import numpy as np
import pytest

from airmodem import (
    AudioSignal,
    ClippingWarning,
    CorruptFileError,
    IncompatibleSignalError,
    UnsupportedFormatError,
    generate_tone,
    read_wav,
    write_wav,
)
from oracles import struct_packed_wav


def make_wav_bytes(tag=1, channels=1, rate=44100, bits=16, payload=b"\x00\x00"):
    block = channels * bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        tag,
        channels,
        rate,
        rate * block,
        block,
        bits,
        b"data",
        len(payload),
    ) + payload


def chunk(chunk_id: bytes, body: bytes) -> bytes:
    """One RIFF chunk, with the pad byte an odd-sized body needs."""
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


FMT_MONO = struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16)
PAYLOAD = struct.pack("<hh", 1000, -1000)


class TestWriteWav:
    def test_full_scale_positive_bytes(self, tmp_path):
        path = tmp_path / "one.wav"
        write_wav(AudioSignal([1.0], 44100), path)
        data = path.read_bytes()
        assert data[-2:] == bytes([0xFF, 0x7F])  # 32767 little-endian

    def test_full_scale_negative_bytes(self, tmp_path):
        path = tmp_path / "neg.wav"
        write_wav(AudioSignal([-1.0], 44100), path)
        data = path.read_bytes()
        assert data[-2:] == bytes([0x01, 0x80])  # -32767 little-endian

    def test_header_fields(self, tmp_path):
        path = tmp_path / "hdr.wav"
        write_wav(AudioSignal(np.zeros(10), 96000), path)
        raw = path.read_bytes()
        assert len(raw) == 44 + 20
        riff, size, wave, fmt_id, fmt_size, tag, ch, rate, byte_rate, block, bits, data_id, data_size = struct.unpack(
            "<4sI4s4sIHHIIHH4sI", raw[:44]
        )
        assert (riff, wave, fmt_id, data_id) == (b"RIFF", b"WAVE", b"fmt ", b"data")
        assert (tag, ch, rate, bits) == (1, 1, 96000, 16)
        assert (byte_rate, block) == (96000 * 2, 2)
        assert data_size == 20 and size == 36 + 20

    def test_byte_identical_across_runs(self, tmp_path):
        sig = generate_tone(19200, 4800, 96000, amplitude=0.7)
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(sig, a)
        write_wav(sig, b)
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_clipped_with_warning(self, tmp_path):
        path = tmp_path / "clip.wav"
        with pytest.warns(ClippingWarning):
            write_wav(AudioSignal([0.0, 1.5, -2.0], 44100), path)
        signal = read_wav(path)
        np.testing.assert_allclose(signal.samples, [0.0, 1.0, -1.0], atol=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        with pytest.raises(IncompatibleSignalError):
            write_wav(AudioSignal([0.5, bad], 44100), path)
        assert not path.exists()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_wav(AudioSignal([0.0], 44100), tmp_path / "nodir" / "x.wav")


class TestWriteWavMatchesOracle:
    @pytest.mark.parametrize("rate", [44100, 48000, 96000])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_bytes_equal_struct_packed(self, tmp_path, channels, rate):
        rng = np.random.default_rng(rate + channels)
        samples = rng.uniform(-1.5, 1.5, (channels, 301))
        # full scale, just past it, and half-way values next to full scale
        samples[:, :6] = [1.0, -1.0, 1.0 + 1e-12, -3.0, 32766.5 / 32767, -32766.5 / 32767]
        path = tmp_path / "oracle.wav"
        with pytest.warns(ClippingWarning):
            write_wav(AudioSignal(samples if channels == 2 else samples[0], rate), path)
        assert path.read_bytes() == struct_packed_wav(samples, rate)


class TestReadWavLayouts:
    """Chunk layouts: accepted ones hold the samples of PAYLOAD, and rejected
    ones raise a fixed exception type and message."""

    @pytest.mark.parametrize(
        "raw",
        [
            riff(chunk(b"fmt ", FMT_MONO), chunk(b"junk", b"abc"), chunk(b"data", PAYLOAD)),
            riff(chunk(b"data", PAYLOAD), chunk(b"fmt ", FMT_MONO)),
            riff(chunk(b"fmt ", FMT_MONO + b"\x00\x00"), chunk(b"data", PAYLOAD)),
            riff(chunk(b"fmt ", FMT_MONO), chunk(b"data", PAYLOAD))
            + b"LIST" + struct.pack("<I", 100) + b"INFO",
        ],
        ids=["odd_unknown_chunk_padded", "data_before_fmt", "fmt_18_bytes", "truncated_tail_chunk"],
    )
    def test_accepted(self, tmp_path, raw):
        path = tmp_path / "layout.wav"
        path.write_bytes(raw)
        signal = read_wav(path)
        assert (signal.sample_rate_hz, signal.channel_count) == (44100, 1)
        np.testing.assert_array_equal(signal.samples, [1000 / 32767, -1000 / 32767])

    @pytest.mark.parametrize(
        "raw,error,message",
        [
            (b"RIFF\x04\x00\x00\x00WAV", CorruptFileError, "file truncated while reading RIFF header"),
            (
                riff(chunk(b"fmt ", FMT_MONO[:14]), chunk(b"data", PAYLOAD)),
                CorruptFileError,
                "fmt chunk too small (14 bytes)",
            ),
            (
                riff(b"fmt " + struct.pack("<I", 16) + FMT_MONO[:10]),
                CorruptFileError,
                "file truncated while reading fmt chunk",
            ),
            (riff(chunk(b"data", PAYLOAD)), CorruptFileError, "missing fmt chunk"),
            (riff(chunk(b"fmt ", FMT_MONO)), CorruptFileError, "missing data chunk"),
            (
                riff(chunk(b"fmt ", FMT_MONO), chunk(b"data", b"")),
                CorruptFileError,
                "data chunk is empty",
            ),
            (
                riff(chunk(b"fmt ", FMT_MONO[:12] + struct.pack("<HH", 4, 16)), chunk(b"data", PAYLOAD)),
                CorruptFileError,
                "data chunk size does not match the frame layout",
            ),
            (
                riff(chunk(b"fmt ", struct.pack("<H", 3) + FMT_MONO[2:]), chunk(b"data", PAYLOAD)),
                UnsupportedFormatError,
                "unsupported format tag 3 (only PCM=1)",
            ),
        ],
        ids=[
            "under_12_bytes",
            "fmt_14_bytes",
            "truncated_fmt",
            "no_fmt",
            "no_data",
            "empty_data",
            "block_align_mismatch",
            "float_tag",
        ],
    )
    def test_rejected_with_message(self, tmp_path, raw, error, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(error) as excinfo:
            read_wav(path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("extra", range(1, 8))
    def test_trailing_bytes_after_data_rejected(self, tmp_path, extra):
        path = tmp_path / "tail.wav"
        path.write_bytes(riff(chunk(b"fmt ", FMT_MONO), chunk(b"data", PAYLOAD)) + b"\x00" * extra)
        with pytest.raises(CorruptFileError, match="^file truncated inside a chunk header$"):
            read_wav(path)

    def test_not_riff_names_the_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(UnsupportedFormatError) as excinfo:
            read_wav(path)
        assert str(excinfo.value) == f"{path} is not a RIFF/WAVE file"


class TestReadWav:
    def test_roundtrip_quantization_bound_mono(self, tmp_path):
        rng = np.random.default_rng(17)
        sig = AudioSignal(rng.uniform(-1, 1, 5000), 44100)
        path = tmp_path / "rt.wav"
        write_wav(sig, path)
        back = read_wav(path)  # the 16-bit layout is pinned against struct_packed_wav
        assert back.sample_rate_hz == 44100
        assert back.channel_count == 1
        assert np.max(np.abs(back.samples - sig.samples)) <= 1 / 32767 + 1e-12

    def test_roundtrip_stereo_interleaving(self, tmp_path):
        rng = np.random.default_rng(18)
        sig = AudioSignal(rng.uniform(-1, 1, (2, 333)), 48000)
        path = tmp_path / "st.wav"
        write_wav(sig, path)
        back = read_wav(path)
        assert back.channel_count == 2
        assert np.max(np.abs(back.samples - sig.samples)) <= 1 / 32767 + 1e-12

    def test_non_pcm_tag_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(make_wav_bytes(tag=3))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "deep.wav"
        payload = b"\x00" * 3
        raw = make_wav_bytes(bits=24, payload=payload)
        path.write_bytes(raw)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_zero_length_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(make_wav_bytes(payload=b""))
        with pytest.raises(CorruptFileError):
            read_wav(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "trunc.wav"
        full = make_wav_bytes(payload=b"\x00\x00\x00\x00")
        path.write_bytes(full[:-3])
        with pytest.raises(CorruptFileError):
            read_wav(path)

    def test_missing_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "nodata.wav"
        raw = make_wav_bytes()
        path.write_bytes(raw[: 12 + 8 + 16])  # RIFF header + fmt only
        with pytest.raises(CorruptFileError):
            read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_unknown_chunks_skipped(self, tmp_path):
        # LIST metadata between fmt and data must be ignored
        payload = struct.pack("<hh", 1000, -1000)
        list_chunk = b"LIST" + struct.pack("<I", 4) + b"INFO"
        base = make_wav_bytes(payload=payload)
        raw = base[:36] + list_chunk + base[36:]
        raw = raw[:4] + struct.pack("<I", len(raw) - 8) + raw[8:]
        path = tmp_path / "list.wav"
        path.write_bytes(raw)
        signal = read_wav(path)
        np.testing.assert_allclose(signal.samples, [1000 / 32767, -1000 / 32767])

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "absent.wav")

    def test_three_channel_rejected(self, tmp_path):
        path = tmp_path / "3ch.wav"
        path.write_bytes(make_wav_bytes(channels=3, payload=b"\x00" * 6))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)
