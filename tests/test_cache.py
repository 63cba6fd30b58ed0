"""Checksummed cache-file layer."""

import pytest

from tightwp import cache
from tightwp.errors import CacheError


def test_round_trip(tmp_path):
    path = tmp_path / "x.twp"
    payload = [[1, 2], ["a", "-3/7"]]
    cache.write_twp(path, "poly", [1, 2, 3], payload)
    meta, got = cache.read_twp(path, "poly")
    assert meta == ["1", "2", "3"]
    assert got == payload


def test_missing_file_returns_none(tmp_path):
    assert cache.read_twp(tmp_path / "nope.twp", "poly") is None


def test_corrupt_payload_rejected(tmp_path):
    path = tmp_path / "x.twp"
    cache.write_twp(path, "tau", [0], [])
    blob = path.read_bytes().replace(b"[]", b"[1")
    path.write_bytes(blob)
    with pytest.raises(CacheError):
        cache.read_twp(path, "tau")


def test_truncation_rejected(tmp_path):
    path = tmp_path / "x.twp"
    cache.write_twp(path, "tau", [0], list(range(100)))
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CacheError):
        cache.read_twp(path, "tau")


def test_kind_and_version_checked(tmp_path):
    path = tmp_path / "x.twp"
    cache.write_twp(path, "tau", [0], [])
    with pytest.raises(CacheError):
        cache.read_twp(path, "poly")
    blob = path.read_bytes()
    stale = blob.replace(f" {cache.VERSION} ".encode(), b" v0 ", 1)
    assert stale != blob
    path.write_bytes(stale)
    with pytest.raises(CacheError, match="cache version v0"):
        cache.read_twp(path, "tau")


def test_not_a_cache_file(tmp_path):
    path = tmp_path / "x.twp"
    path.write_text("hello\nworld\n!\n")
    with pytest.raises(CacheError):
        cache.read_twp(path, "poly")


def test_no_stray_temp_files(tmp_path):
    path = tmp_path / "x.twp"
    cache.write_twp(path, "tau", [0], [1, 2, 3])
    assert [p.name for p in tmp_path.iterdir()] == ["x.twp"]
