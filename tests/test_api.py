"""The public surface: the README's library example and every exported name."""

import datetime as dt
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ratinglab as rl

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the block runs verbatim against a simulated panel over the span it names
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library use\n+```python\n(.*?)^```", text, re.M | re.S)
    scenario = rl.Scenario(
        kind="homogeneous",
        generators=((dt.date(2007, 1, 1), rl.random_generator(3, 0.5)),),
        n_banks=50,
        span=(dt.date(2007, 1, 1), dt.date(2011, 1, 1)),
        seed=5,
        initial_distribution=rl.uniform_distribution(),
    )
    rl.write_panel_csv(rl.simulate(scenario), tmp_path / "panel.csv")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    assert names["panel"].n_banks == 50
    assert names["counts"].total > 0
    assert names["series"].statistic == "homogeneity_L" and len(names["series"].values)


@pytest.mark.parametrize(
    "module",
    ["ratinglab"] + [f"ratinglab.{m.name}" for m in pkgutil.iter_modules(rl.__path__)],
)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


PUBLIC_MODULES = (
    "dates", "descriptive", "diagnostics", "errors", "estimation", "ingest", "panel", "scale",
    "simulator",
)


def test_package_all_is_the_modules_all():
    # each module's __all__ is the one statement of its public API
    modules = [importlib.import_module(f"ratinglab.{name}") for name in PUBLIC_MODULES]
    assert rl.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(rl.__all__)) == len(rl.__all__)
    assert rl.dates.__all__ == ["DAYS_PER_YEAR"]
    for name in rl.__all__:
        module = next(m for m in modules if name in m.__all__)
        assert getattr(rl, name) is getattr(module, name)


def test_label_codec_is_gone():
    # label text becomes a state only inside ingest
    assert not {"encode", "decode"} & set(dir(rl))
    assert not hasattr(rl.scale, "_LABEL_TO_STATE")
