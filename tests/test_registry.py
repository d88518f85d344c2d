"""The canonical setups are built once per process and fixture version."""
import json
import os
from fractions import Fraction as F

import pytest

from okounkov import registry, surface, toric


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    # Earlier tests warm the memo; each test here starts from an empty one.
    monkeypatch.setattr(registry, "_MEMO", {})


@pytest.fixture
def builds(monkeypatch):
    """Count the body builds of invariant_setup."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(surface, "surface_body_outer")
    spy(toric, "extended_body_toric")
    return calls


def _bl1p2_doc(scale):
    doc = json.loads((toric._FIXTURE_DIR / "bl1p2.json").read_text())
    doc["divisors"]["O1"]["coeffs"] = ["0", "0", "0", str(scale)]
    return doc


def _scaled(body, k):
    return tuple(tuple(k * x for x in v) for v in body.vertices)


@pytest.mark.parametrize("name", registry.INVARIANT_FIXTURES)
def test_two_calls_return_the_same_setup(name):
    assert registry.invariant_setup(name) is registry.invariant_setup(name)


def test_each_setup_is_built_once(builds):
    for _ in range(5):
        for name in registry.INVARIANT_FIXTURES:
            registry.invariant_setup(name)
    # bl1p2 is the toric body, the other two the chamber walk.
    assert sorted(builds) == ["extended_body_toric", "surface_body_outer",
                              "surface_body_outer"]


def test_fixture_dir_switch_rebuilds(tmp_path, monkeypatch, builds):
    shipped = registry.invariant_setup("bl1p2")
    (tmp_path / "bl1p2.json").write_text(json.dumps(_bl1p2_doc(2)))
    monkeypatch.setenv("OKOUNKOV_FIXTURES", str(tmp_path))
    doubled = registry.invariant_setup("bl1p2")
    assert doubled.body.vertices == _scaled(shipped.body, 2)
    assert registry.invariant_setup("bl1p2") is doubled
    monkeypatch.delenv("OKOUNKOV_FIXTURES")
    back = registry.invariant_setup("bl1p2")
    assert back.body.vertices == shipped.body.vertices
    # One entry per name: switching back builds again.
    assert back is not shipped and len(builds) == 3
    assert list(registry._MEMO) == ["bl1p2"]


def test_rewritten_fixture_file_rebuilds(tmp_path, monkeypatch):
    path = tmp_path / "bl1p2.json"
    path.write_text(json.dumps(_bl1p2_doc(2)))
    monkeypatch.setenv("OKOUNKOV_FIXTURES", str(tmp_path))
    doubled = registry.invariant_setup("bl1p2")
    # Same size, later modification time: the file's clock may not tick
    # between two writes, so the test sets it.
    ns = path.stat().st_mtime_ns
    path.write_text(json.dumps(_bl1p2_doc(3)))
    os.utime(path, ns=(ns, ns + 10**9))
    tripled = registry.invariant_setup("bl1p2")
    assert tripled.body.vertices == _scaled(doubled.body, F(3, 2))
    # Same modification time, another size.
    path.write_text(json.dumps(_bl1p2_doc(12)))
    os.utime(path, ns=(ns, ns + 10**9))
    assert (registry.invariant_setup("bl1p2").body.vertices
            == _scaled(doubled.body, 6))


def test_errors_raise_every_call_and_are_not_stored(tmp_path, monkeypatch):
    for _ in range(2):
        with pytest.raises(ValueError, match="^unknown invariant fixture "
                           "'nosuch'; accepted: bl1p2, bl2p2, bl1p2-shifted$"):
            registry.invariant_setup("nosuch")
    monkeypatch.setenv("OKOUNKOV_FIXTURES", str(tmp_path))
    # A missing file reads as toric.load_fixture words it.
    with pytest.raises(FileNotFoundError) as loading:
        toric.load_fixture("bl1p2")
    for _ in range(2):
        with pytest.raises(FileNotFoundError) as exc:
            registry.invariant_setup("bl1p2")
        assert str(exc.value) == str(loading.value)
    assert registry._MEMO == {}
