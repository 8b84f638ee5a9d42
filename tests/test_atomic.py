import pytest

from saferl.atomic import atomic_open
from saferl.pipeline import _write_json


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "expansion.json"
    _write_json(path, {"box": [1.0, 2.0]})
    before = path.read_bytes()
    # json.dump has written the first keys when it reaches the bad value
    with pytest.raises(TypeError):
        _write_json(path, {"a": 1.0, "z": object()})
    assert path.read_bytes() == before
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(path, "wb") as fh:
            fh.write(b"partial")
            raise KeyboardInterrupt
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["expansion.json"]

