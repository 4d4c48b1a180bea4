"""Atomic text writes: unique temp files that never outlive the write."""

import pytest

from tactherm.textio import atomic_write_text


def test_atomic_write_replaces_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "sub" / "a.csv"
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"
    assert [p.name for p in path.parent.iterdir()] == ["a.csv"]


def test_atomic_write_failure_keeps_old_file_and_removes_temp(tmp_path):
    path = tmp_path / "a.csv"
    atomic_write_text(path, "kept\n")
    with pytest.raises(TypeError):
        atomic_write_text(path, 12345)  # not text: the write itself fails
    assert path.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_atomic_write_ignores_stale_fixed_name_temp(tmp_path):
    path = tmp_path / "a.csv"
    stale = tmp_path / "a.csv.tmp"
    stale.mkdir()  # the old fixed temp name, now unusable as a file
    atomic_write_text(path, "ok\n")
    assert path.read_text() == "ok\n"
