"""Graymap reader/writer round-trip and format tests."""

import numpy as np
import pytest

from saddleprox.core import ConfigurationError
from saddleprox.pgm import read_pgm, write_pgm
from saddleprox.potts import gen_synthetic


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [255, 65535])
def test_roundtrip_is_lossless_after_quantization(tmp_path, binary, maxval):
    img = gen_synthetic(13, 17, seed=2, noise_sigma=0.1)
    path = tmp_path / "img.pgm"
    write_pgm(path, img, maxval=maxval, binary=binary)
    back, mv = read_pgm(path)
    assert mv == maxval
    assert back.shape == img.shape
    quantized = np.rint(img * maxval) / maxval
    assert np.array_equal(back, quantized)
    # Writing the read-back image again reproduces it bit for bit.
    path2 = tmp_path / "img2.pgm"
    write_pgm(path2, back, maxval=maxval, binary=binary)
    again, _ = read_pgm(path2)
    assert np.array_equal(again, back)


def test_sixteen_bit_samples_are_big_endian(tmp_path):
    img = np.array([[256.0 / 65535.0]])
    path = tmp_path / "one.pgm"
    write_pgm(path, img, maxval=65535)
    raw = path.read_bytes()
    assert raw.endswith(b"\x01\x00")
    back, mv = read_pgm(path)
    assert mv == 65535
    assert back[0, 0] == pytest.approx(256.0 / 65535.0, rel=1e-15)


def test_values_above_eight_bit_survive(tmp_path):
    img = np.linspace(0.0, 1.0, 300).reshape(12, 25)
    path = tmp_path / "grad.pgm"
    write_pgm(path, img, maxval=65535)
    back, _ = read_pgm(path)
    assert len(np.unique(np.rint(back * 65535))) == 300


def test_comments_preserved_and_skipped(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "c.pgm"
    write_pgm(path, img, maxval=255, comments=["alpha = 1.0", "seed = 7"])
    text = path.read_bytes()
    assert b"# alpha = 1.0" in text
    assert b"# seed = 7" in text
    back, _ = read_pgm(path)
    assert np.array_equal(back, np.rint(img * 255) / 255)


def test_ascii_with_interleaved_comments_parses(tmp_path):
    path = tmp_path / "hand.pgm"
    path.write_bytes(b"P2\n# hand written\n2 # width then height\n2\n255\n0 128\n255 64\n")
    img, mv = read_pgm(path)
    assert mv == 255
    assert img.shape == (2, 2)
    assert img[0, 1] == pytest.approx(128.0 / 255.0, rel=1e-15)
    assert img[1, 0] == 1.0


def test_clipping_before_quantization(tmp_path):
    img = np.array([[-0.5, 2.0]])
    path = tmp_path / "clip.pgm"
    write_pgm(path, img, maxval=255)
    back, _ = read_pgm(path)
    assert back[0, 0] == 0.0
    assert back[0, 1] == 1.0


def test_reader_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ConfigurationError):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(ConfigurationError):
        read_pgm(trunc)
    short_header = tmp_path / "short.pgm"
    short_header.write_bytes(b"P5\n2")
    with pytest.raises(ConfigurationError):
        read_pgm(short_header)
    overrange = tmp_path / "over.pgm"
    overrange.write_bytes(b"P2\n1 1\n10\n11\n")
    with pytest.raises(ConfigurationError):
        read_pgm(overrange)


def test_writer_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigurationError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))
    with pytest.raises(ConfigurationError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=0)
    with pytest.raises(ConfigurationError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=100000)


@pytest.mark.parametrize("raw", [b"P5\n0 0\n255\n", b"P2\n3 0\n255\n"])
def test_reader_rejects_empty_image(tmp_path, raw):
    path = tmp_path / "empty.pgm"
    path.write_bytes(raw)
    with pytest.raises(ConfigurationError, match="empty graymap"):
        read_pgm(path)
