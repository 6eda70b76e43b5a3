"""The serving path imports only what serves, and the package façades
keep their public names.

Every package that re-exports its submodules' names (``repro``,
``repro.workload``, ``repro.net``, ``repro.data``, ``repro.rws`` and
``repro.obs``) is a PEP 562 lazy façade built on
:func:`repro.lazy_exports`, and a module on the serving path imports a
non-serving package only at call time.  The closure tests pin that by
module name in a fresh interpreter, so they count imports and never
time them.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages and modules no server process needs: the workload engine,
#: the fault injector, the browser, the synthetic web, the categoriser,
#: the paper analyses, the TCP client and the list-history tools.
NOT_SERVING = (
    "repro.workload.driver",
    "repro.chaos",
    "repro.browser",
    "repro.netsim",
    "repro.categorize",
    "repro.analysis",
    "repro.survey",
    "repro.governance",
    "repro.net.client",
    "repro.rws.suggestions",
    "repro.rws.history",
)

#: Brings up the serving stack the way a server process does: the TCP
#: server and the cluster, a service, and one publish.
SERVE = """
import repro.net.server
import repro.cluster
from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.serve.service import RwsService

service = RwsService()
service.publish(RwsList(sets=[RelatedWebsiteSet(
    primary="example.com", associated=["example-news.com"],
    rationales={"example-news.com": "same brand"})]))
assert service.query("www.example.com", "example-news.com").related
"""

FACADES = ("repro", "repro.workload", "repro.net", "repro.data",
           "repro.rws", "repro.obs")


def loaded_repro_modules(code: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    report = ("\nimport json, sys\nprint(json.dumps(sorted("
              "m for m in sys.modules "
              "if m == 'repro' or m.startswith('repro.'))))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code + report], env=env,
        capture_output=True, text=True, timeout=120, check=False)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


class TestServingClosure:
    def test_serving_stack_imports_no_non_serving_module(self):
        loaded = loaded_repro_modules(SERVE)
        leaked = [module for module in loaded
                  if module.startswith(NOT_SERVING)]
        assert leaked == [], f"non-serving modules loaded: {leaked}"
        assert "repro.serve.service" in loaded  # the probe really served

    def test_cli_imports_only_itself(self):
        assert loaded_repro_modules("import repro.cli") == [
            "repro", "repro.cli"]

    def test_seed_list_builder_leaves_the_list_history_unloaded(self):
        # A server launcher builds the seed list; only
        # build_rws_history needs the history module.
        loaded = loaded_repro_modules(
            "from repro.data import build_rws_list\nbuild_rws_list()\n")
        assert "repro.data.builders" in loaded
        assert "repro.rws.history" not in loaded


@pytest.fixture(params=FACADES)
def facade(request):
    return importlib.import_module(request.param)


class TestFacadeContract:
    def test_every_public_name_is_its_defining_module_object(self, facade):
        exports = {name: module for module, names in facade._EXPORTS.items()
                   for name in names}
        eager = set(facade.__all__) - set(exports)
        assert eager <= {"__version__"}
        assert set(exports) <= set(facade.__all__)
        for name in facade.__all__:
            value = getattr(facade, name)
            if name in exports:
                origin = importlib.import_module(exports[name])
                assert value is getattr(origin, name), name
                if hasattr(value, "__qualname__"):  # classes, functions
                    assert value.__module__ == exports[name], name

    def test_dir_lists_every_public_name(self, facade):
        assert set(facade.__all__) <= set(dir(facade))

    def test_star_import_binds_every_public_name(self, facade):
        namespace: dict = {}
        exec(f"from {facade.__name__} import *", namespace)
        assert set(facade.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error_naming_the_package(
            self, facade):
        with pytest.raises(AttributeError,
                           match=re.escape(repr(facade.__name__))):
            facade.no_such_name  # noqa: B018

    def test_workload_metrics_keeps_the_histogram_re_export(self):
        from repro.workload import metrics  # a submodule, not an export
        from repro.obs.registry import LatencyHistogram

        assert metrics.LatencyHistogram is LatencyHistogram
