"""Repo-level consistency: docs, benches, and public API stay in sync."""

import importlib.util
import re
from pathlib import Path

import pytest

import repro
import repro.batch
import repro.calib
import repro.core
import repro.distributions
import repro.faults
import repro.nws
import repro.obs
import repro.scheduling
import repro.serving
import repro.sor
import repro.structural
import repro.workload

ROOT = Path(__file__).parent.parent


class TestPerfbenchLayers:
    def test_layer_clock_wraps_and_restores_every_target(self, monkeypatch):
        # `perfbench/run.py --trace 1` times library entry points it binds
        # by attribute name; a renamed or deleted one must fail here, not
        # silently drop out of the layer report.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        targets = [(owner, name, owner.__dict__[name]) for _, owner, name, _ in layers.TARGETS]
        clock = layers.LayerClock()
        clock.install()
        try:
            for owner, name, raw in targets:
                assert owner.__dict__[name] is not raw, f"{owner.__name__}.{name} not wrapped"
        finally:
            clock.uninstall()
        for owner, name, raw in targets:
            assert owner.__dict__[name] is raw, f"{owner.__name__}.{name} not restored"


class TestDesignDocument:
    def test_every_bench_in_design_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert referenced, "DESIGN.md must reference bench files"
        for name in referenced:
            assert (ROOT / "benchmarks" / name).exists(), f"missing {name}"

    def test_every_bench_file_documented(self):
        design = (ROOT / "DESIGN.md").read_text()
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        corpus = design + experiments
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in corpus, f"{path.name} not documented in DESIGN/EXPERIMENTS"

    def test_paper_check_recorded(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "Paper-text check" in design


class TestReadme:
    def test_examples_table_matches_directory(self):
        readme = (ROOT / "README.md").read_text()
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} missing from README examples table"

    def test_no_stale_example_references(self):
        readme = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(\w+\.py)`", readme):
            assert (ROOT / "examples" / name).exists(), f"README references missing {name}"


class TestPublicApi:
    @pytest.mark.parametrize(
        "module",
        [
            repro,
            repro.batch,
            repro.calib,
            repro.core,
            repro.distributions,
            repro.faults,
            repro.nws,
            repro.obs,
            repro.scheduling,
            repro.serving,
            repro.sor,
            repro.structural,
            repro.workload,
        ],
    )
    def test_all_exports_resolve(self, module):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} in __all__ but missing"

    @pytest.mark.parametrize(
        "module",
        [
            repro.batch,
            repro.calib,
            repro.core,
            repro.distributions,
            repro.faults,
            repro.nws,
            repro.obs,
            repro.scheduling,
            repro.serving,
            repro.sor,
            repro.structural,
            repro.workload,
        ],
    )
    def test_public_objects_documented(self, module):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestExamplesHaveMains:
    def test_every_example_defines_main(self):
        for path in (ROOT / "examples").glob("*.py"):
            text = path.read_text()
            assert "def main()" in text, f"{path.name} must define main()"
            assert '__name__ == "__main__"' in text, f"{path.name} must be runnable"
