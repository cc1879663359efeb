"""Reading portable graymap (PGM) images, ASCII (P2) and binary (P5),
and writing them as P5.

Images are exchanged with the rest of the package as float arrays
normalized to [0, 1]; files store integer samples up to a maxval of
65535 (16-bit binary samples are big-endian, the convention of the format definition).
Comment lines (leading '#') in the header are preserved on write via
``comments`` so output files can carry their generating configuration.
``write_file`` is the one way the package writes a file.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .core import ConfigurationError


def write_file(path: Union[str, Path], data: bytes) -> None:
    """Make ``path`` hold exactly ``data``, rewriting an existing file in place.

    The result is that of ``open(path, "wb").write(data)``: symlinks are
    followed, an existing file keeps its inode and mode, a new one gets
    0o666 minus the umask, and failures raise ``OSError``.  The file is
    not truncated on open: truncating a file to zero and writing it again
    makes ext4 (``auto_da_alloc``) force writeback at close, tens of
    milliseconds per file.  The old bytes are overwritten and the file is
    cut to length afterwards, so an interrupted write can leave the new
    bytes followed by a stale tail.  Only regular files are cut, which
    lets ``path`` be a device such as ``/dev/null``.
    """
    # O_BINARY (Windows only) stops newline translation in the raster.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_pgm(path: Union[str, Path]) -> tuple[np.ndarray, int]:
    """Read a P2 (ASCII) or P5 (binary) graymap.

    Returns (image, maxval) with the image as floats in [0, 1]
    (sample / maxval).
    """
    data = Path(path).read_bytes()
    if not data[:2] in (b"P2", b"P5"):
        raise ConfigurationError("not a P2/P5 graymap: %s" % path)
    magic = data[:2].decode()

    # Tokenize the header: magic, width, height, maxval.  Comments run
    # from '#' to end of line anywhere in the header, and end a token.
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in b" \t\n\r\v\f#":
            pos += 1
        if start == pos:
            raise ConfigurationError("truncated graymap header: %s" % path)
        tokens.append(data[start:pos])
    if not all(t.isdigit() for t in tokens):
        raise ConfigurationError("non-numeric graymap header in %s" % path)
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1:
        raise ConfigurationError("empty graymap (%dx%d): %s" % (width, height, path))
    if not (0 < maxval <= 65535):
        raise ConfigurationError("maxval out of range (1..65535): %d" % maxval)

    if magic == "P2":
        try:
            values = np.array(data[pos:].split(), dtype=np.int64)
        except (ValueError, OverflowError):
            raise ConfigurationError("non-numeric or oversized sample in %s" % path) from None
        if values.size != width * height:
            raise ConfigurationError(
                "expected %d samples, found %d" % (width * height, values.size)
            )
    else:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        raw = data[pos : pos + count * dtype.itemsize]
        if len(raw) != count * dtype.itemsize or not data[pos - 1 : pos].isspace():
            raise ConfigurationError("truncated raster, or none after maxval: %s" % path)
        values = np.frombuffer(raw, dtype=dtype).astype(np.int64)

    if values.min() < 0 or values.max() > maxval:
        raise ConfigurationError("sample out of range in %s" % path)
    img = values.reshape(height, width).astype(float) / maxval
    return img, maxval


def write_pgm(
    path: Union[str, Path],
    image: np.ndarray,
    maxval: int = 65535,
    comments: Optional[Iterable[str]] = None,
) -> None:
    """Write a [0, 1] float image as a P5 graymap.

    Values are clipped to [0, 1] and rounded to maxval levels; reading
    the file back reproduces the quantized samples exactly.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ConfigurationError("image must be 2-d")
    if not (0 < maxval <= 65535):
        raise ConfigurationError("maxval out of range (1..65535): %d" % maxval)

    samples = np.rint(np.clip(image, 0.0, 1.0) * maxval).astype(np.int64)
    header_lines = ["P5"]
    for c in comments or ():
        for line in str(c).splitlines() or [""]:
            header_lines.append("# " + line)
    header_lines.append("%d %d" % (image.shape[1], image.shape[0]))
    header_lines.append("%d" % maxval)
    header = ("\n".join(header_lines) + "\n").encode("ascii")

    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    raster = samples.astype(dtype).tobytes()
    write_file(path, header + raster)
