"""API-surface tests: the public interface resolves and stays consistent."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.space",
    "repro.core",
    "repro.search",
    "repro.variability",
    "repro.cluster",
    "repro.harmony",
    "repro.apps",
    "repro.experiments",
    "repro.report",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_version_present(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_no_private_names_exported(self):
        assert not [n for n in repro.__all__ if n.startswith("_") and n != "__version__"]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_resolves(self, module_name):
        mod = importlib.import_module(module_name)
        if not hasattr(mod, "__all__"):
            pytest.skip(f"{module_name} defines no __all__")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module_name}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_module_docstrings(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20


class TestDocumentation:
    def test_public_classes_have_docstrings(self):
        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name, None)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    missing.append(name)
        assert not missing, f"missing docstrings: {missing}"

    def test_public_methods_have_docstrings(self):
        undocumented = []
        for name in ("ParallelRankOrdering", "TuningSession", "ParameterSpace",
                     "ParetoDistribution", "PerformanceDatabase", "Cluster"):
            cls = getattr(repro, name)
            for attr_name, attr in vars(cls).items():
                if attr_name.startswith("_"):
                    continue
                if callable(attr) and not (getattr(attr, "__doc__", None) or "").strip():
                    undocumented.append(f"{name}.{attr_name}")
        assert not undocumented, f"undocumented public methods: {undocumented}"


class TestConsistency:
    def test_tuners_share_protocol(self):
        from repro.core.base import BatchTuner

        for name in ("ParallelRankOrdering", "SequentialRankOrdering",
                     "NelderMead", "SimulatedAnnealing", "GeneticAlgorithm",
                     "RandomSearch", "CoordinateDescent"):
            assert issubclass(getattr(repro, name), BatchTuner), name

    def test_noise_models_share_protocol(self):
        from repro.variability.models import NoiseModel

        for name in ("NoNoise", "ParetoNoise", "TruncatedParetoNoise",
                     "GaussianNoise", "ExponentialNoise", "SpikeMixtureNoise",
                     "MarkovModulatedNoise"):
            assert issubclass(getattr(repro, name), NoiseModel), name

    def test_estimators_share_protocol(self):
        from repro.core.sampling import Estimator

        for name in ("MinEstimator", "MeanEstimator", "MedianEstimator"):
            assert issubclass(getattr(repro, name), Estimator), name


class TestImportCost:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half a second of every process start
        # (the CLI, each served shard); only the distribution fits use it.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        code = (
            "import sys, repro, repro.cli\n"
            "print('scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "False"
