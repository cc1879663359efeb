"""Graymap reader/writer round-trip and format tests, and the file writer."""

import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saddleprox.core import ConfigurationError
from saddleprox.pgm import read_pgm, write_file, write_pgm
from saddleprox.potts import gen_synthetic


@pytest.mark.parametrize("maxval", [255, 65535])
def test_roundtrip_is_lossless_after_quantization(tmp_path, maxval):
    img = gen_synthetic(13, 17, seed=2, noise_sigma=0.1)
    path = tmp_path / "img.pgm"
    write_pgm(path, img, maxval=maxval)
    back, mv = read_pgm(path)
    assert mv == maxval
    assert back.shape == img.shape
    quantized = np.rint(img * maxval) / maxval
    assert np.array_equal(back, quantized)
    # Writing the read-back image again reproduces it bit for bit.
    path2 = tmp_path / "img2.pgm"
    write_pgm(path2, back, maxval=maxval)
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


def test_writer_clips_infinities_and_rejects_nan_before_writing(tmp_path):
    path = tmp_path / "inf.pgm"
    write_pgm(path, np.array([[-np.inf, np.inf]]), maxval=255)
    assert read_pgm(path)[0].tolist() == [[0.0, 1.0]]
    before = path.read_bytes()
    for nan in (np.nan, -np.nan):
        with pytest.raises(ConfigurationError, match="NaN"):
            write_pgm(path, np.array([[0.5, nan]]), maxval=255)
        with pytest.raises(ConfigurationError, match="NaN"):
            write_pgm(tmp_path / "new.pgm", np.array([[nan]]))
    assert path.read_bytes() == before
    assert not (tmp_path / "new.pgm").exists()


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


@pytest.mark.parametrize("raw, message", [
    (b"P2\n3 x\n255\n1 2 3\n", "non-numeric"),
    (b"P5\n1 1\n25five\n\x00", "non-numeric"),
    (b"P2\n2 2\n255\n1 2 x 4\n", "non-numeric"),
    (b"P2\n1 1\n255\n1.5\n", "non-numeric"),
    (b"P2\n1 1\n255\n99999999999999999999\n", "oversized"),
    (b"P5\n2 1\n255#c\n\x01\x02", "none after maxval"),
], ids=["header-x", "maxval-word", "sample-x", "sample-float", "sample-overflow",
        "comment-before-raster"])
def test_reader_rejects_malformed_tokens(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ConfigurationError, match=message):
        read_pgm(path)


@pytest.mark.parametrize("raw", [b"P2\n3#c\n2 255\n0 1 2 3 4 255\n",
                                 b"P5\n3#c\n2 255\n\x00\x01\x02\x03\x04\xff"],
                         ids=["P2", "P5"])
def test_comment_right_after_a_header_number_ends_it(tmp_path, raw):
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img, mv = read_pgm(path)
    assert mv == 255
    assert np.array_equal(img, np.array([[0, 1, 2], [3, 4, 255]]) / 255.0)


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


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n1=st.integers(1, 9), n2=st.integers(1, 9), seed=st.integers(0, 1000),
       maxval=st.sampled_from([255, 65535]))
def test_roundtrip_over_a_larger_existing_file(tmp_path, n1, n2, seed, maxval):
    img = np.random.default_rng(seed).uniform(-0.1, 1.1, size=(n1, n2))
    path = tmp_path / "img.pgm"
    path.unlink(missing_ok=True)  # truncating an existing file forces writeback on ext4
    path.write_bytes(b"\xff" * 4096)
    write_pgm(path, img, maxval=maxval, comments=["seed = %d" % seed])
    back, mv = read_pgm(path)
    assert mv == maxval
    assert np.array_equal(back, np.rint(np.clip(img, 0.0, 1.0) * maxval) / maxval)
    fresh = tmp_path / "fresh.pgm"
    fresh.unlink(missing_ok=True)
    write_pgm(fresh, img, maxval=maxval, comments=["seed = %d" % seed])
    assert path.read_bytes() == fresh.read_bytes()


# ---------------------------------------------------------------------------
# write_file: in-place rewrite with the semantics of open(path, "wb").
# ---------------------------------------------------------------------------


def test_write_file_shorter_content_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old content that is much longer\n" * 100)
    inode = path.stat().st_ino
    write_file(path, b"new\n")
    assert path.read_bytes() == b"new\n"
    assert path.stat().st_ino == inode
    write_file(path, b"")
    assert path.read_bytes() == b""


def test_write_file_new_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_file(tmp_path / "new.bin", b"x")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new.bin").stat().st_mode) == 0o640


def test_write_file_follows_symlinks_and_keeps_the_link(tmp_path):
    target = tmp_path / "target.bin"
    target.write_bytes(b"0123456789")
    link = tmp_path / "link.bin"
    link.symlink_to(target)
    write_file(link, b"abc")
    assert link.is_symlink()
    assert target.read_bytes() == b"abc"


def test_write_file_keeps_hard_links_and_mode(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"0123456789")
    path.chmod(0o600)
    twin = tmp_path / "b.bin"
    os.link(path, twin)
    write_file(path, b"xyz")
    assert twin.read_bytes() == b"xyz"
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_file_unwritable_path_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        write_file(tmp_path / "missing" / "x.bin", b"x")
    with pytest.raises(OSError):
        write_file(tmp_path, b"x")
