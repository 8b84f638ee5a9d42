import errno
import json
import os

import pytest

from saferl.atomic import atomic_open, write_json


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "expansion.json"
    write_json(path, {"box": [1.0, 2.0]})
    before = path.read_bytes()
    # json.dump has written the first keys when it reaches the bad value
    with pytest.raises(TypeError):
        write_json(path, {"a": 1.0, "z": object()})
    assert path.read_bytes() == before
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(path, "wb") as fh:
            fh.write(b"partial")
            raise KeyboardInterrupt
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["expansion.json"]


def _raising(code):
    def fallocate(fd, offset, length):
        raise OSError(code, os.strerror(code))

    return fallocate


OBJ = {"box": {"lower": [-0.5, -1.0], "upper": [0.5, 1.0]}, "rho_star": 0.25}


@pytest.mark.parametrize("fallback", [None, "missing", "EOPNOTSUPP", "EINVAL"])
def test_replace_writes_the_bytes_of_a_plain_write(tmp_path, monkeypatch, fallback):
    # where posix_fallocate is missing or unsupported the file is renamed
    # without it, with the same bytes
    if fallback == "missing":
        monkeypatch.delattr(os, "posix_fallocate")
    elif fallback is not None:
        monkeypatch.setattr(os, "posix_fallocate", _raising(getattr(errno, fallback)))
    path = tmp_path / "report.json"
    write_json(path, {"old": True})
    write_json(path, OBJ)
    assert path.read_text() == json.dumps(OBJ, indent=2, sort_keys=True) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_fallocate_error_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "policy.json"
    write_json(path, OBJ)
    before = path.read_bytes()
    monkeypatch.setattr(os, "posix_fallocate", _raising(errno.ENOSPC))
    with pytest.raises(OSError) as err:
        write_json(path, {"new": 1})
    assert err.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["policy.json"]


def test_fallocate_is_skipped_for_an_empty_file(tmp_path, monkeypatch):
    calls = []
    real = os.posix_fallocate

    def counting(fd, offset, length):
        calls.append((offset, length))
        real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", counting)
    path = tmp_path / "empty.csv"
    with atomic_open(path, "w", newline=""):
        pass
    assert path.read_bytes() == b"" and calls == []
    with atomic_open(path, "wb") as fh:
        fh.write(b"abc")
    assert path.read_bytes() == b"abc" and calls == [(0, 3)]


@pytest.mark.parametrize("mode", ["wb", "w"])
def test_allocated_size_is_the_written_length(tmp_path, mode):
    # preallocation must not pad the file: st_size stays the bytes written
    path = tmp_path / "samples.csv"
    text = "index,seed,rho\n" + "".join(f"{i},{7 * i},{i / 3!r}\n" for i in range(500))
    data = text.encode()
    with atomic_open(path, mode, **({} if mode == "wb" else {"newline": ""})) as fh:
        fh.write(data if mode == "wb" else text)
    assert path.stat().st_size == len(data)
    assert path.read_bytes() == data
