"""Versioned, checksummed cache files (.twp).

Layout: a header line ``TWPCACHE v2 <kind> <meta...>``, a checksum line
``sha256 <hexdigest>`` over the payload bytes, then the payload (one JSON
document).  Files are published with an atomic rename so concurrent
builders never observe partial writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from tightwp.errors import CacheError

MAGIC = "TWPCACHE"
VERSION = "v2"


def write_twp(path, kind: str, meta, payload_obj) -> None:
    """Atomically write a cache file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(payload_obj, separators=(",", ":")).encode()
    digest = hashlib.sha256(payload).hexdigest()
    header = " ".join([MAGIC, VERSION, kind, *[str(m) for m in meta]])
    blob = header.encode() + b"\n" + f"sha256 {digest}".encode() + b"\n" \
        + payload + b"\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_twp(path, kind: str):
    """Read and verify a cache file; returns (meta list, payload object).

    Returns None if the file does not exist; raises CacheError on any
    version, kind, structure or checksum mismatch.
    """
    path = Path(path)
    if not path.exists():
        return None
    blob = path.read_bytes()
    parts = blob.split(b"\n", 2)
    if len(parts) < 3:
        raise CacheError(f"{path}: truncated cache file")
    header, checksum_line, rest = parts
    fields = header.decode(errors="replace").split()
    if len(fields) < 3 or fields[0] != MAGIC:
        raise CacheError(f"{path}: not a TWPCACHE file")
    if fields[1] != VERSION:
        raise CacheError(f"{path}: cache version {fields[1]} != {VERSION}")
    if fields[2] != kind:
        raise CacheError(f"{path}: cache kind {fields[2]} != {kind}")
    cparts = checksum_line.decode(errors="replace").split()
    if len(cparts) != 2 or cparts[0] != "sha256":
        raise CacheError(f"{path}: malformed checksum line")
    payload = rest.rstrip(b"\n")
    if hashlib.sha256(payload).hexdigest() != cparts[1]:
        raise CacheError(f"{path}: checksum mismatch (corrupt or truncated)")
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheError(f"{path}: undecodable payload ({exc})") from exc
    return fields[3:], obj
