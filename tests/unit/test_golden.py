"""The golden registry (``tools/golden.py``): every fast entry is what this
tree produces, and ``check`` names a drifted entry until ``update``.

The entries in ``golden.SLOW`` (the chaos soak, endurance, trace replay and
the benchmark's quick runs) are checked by CI's golden step, not here.
"""

import shutil

import pytest

import golden

FAST = [name for name in golden.NAMES if name not in golden.SLOW]


@pytest.mark.parametrize("name", FAST)
def test_committed_text_is_what_the_tree_produces(name):
    assert golden.main(["check", name]) == 0, (
        f"if the change is intended: python tools/golden.py update {name}")


def _flip_after(path, key):
    """Change one character of the value after the first ``"key": ``."""
    text = path.read_text()
    at = text.index(f'"{key}": ') + len(f'"{key}": ')
    at += text[at] == '"'
    path.write_text(text[:at] + "12"[text[at] == "1"] + text[at + 1:])


@pytest.mark.parametrize("name, key", [
    ("BENCH_fig11", "bytes_wire"),     # a JSON payload
    ("golden_digests", "stdout"),      # a SHA-256
    ("WIRE_SCHEMA", "version"),        # the wire lock
])
def test_check_names_a_flipped_byte_until_update(name, key, tmp_path, capsys,
                                                 monkeypatch):
    for other in FAST:
        copy = tmp_path / golden.NAMES[other]
        copy.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(golden.ROOT / golden.NAMES[other], copy)
    _flip_after(tmp_path / golden.NAMES[name], key)
    monkeypatch.setattr(golden, "ROOT", tmp_path)

    assert golden.main(["check", *FAST]) == 1
    out = capsys.readouterr().out
    assert f"{name}: {golden.NAMES[name]} differs" in out
    assert f"update {name}\n" in out
    assert [line for line in out.splitlines() if line.endswith(": ok")] == [
        f"{other}: ok" for other in FAST if other != name]

    assert golden.main(["update", name]) == 0
    assert golden.main(["check", *FAST]) == 0
