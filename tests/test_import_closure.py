"""The serving path imports only what serves, and the package façades
keep their public names.

Every package that re-exports its submodules' names (``repro``,
``repro.workload``, ``repro.net``, ``repro.data``, ``repro.rws`` and
``repro.obs``) is a PEP 562 lazy façade built on
:func:`repro.lazy_exports`, and a module on the serving path imports a
non-serving package only at call time.  The server runs on a
:mod:`selectors` loop and hashes with the interpreter's builtin
SHA-256 (:data:`repro.sha256`), so a server process maps neither
:mod:`asyncio` nor OpenSSL.  The closure tests pin that by module name
in a fresh interpreter, so they count imports and never time them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import sha256

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

#: Standard-library modules no server process needs: the asyncio
#: machinery, which pulls in ``ssl``, and ``_hashlib``, through which
#: ``hashlib`` maps OpenSSL's libcrypto.
NOT_SERVING_STDLIB = ("asyncio", "ssl", "_hashlib")

#: Serves the way a server process does: the TCP server in its thread
#: over a router with three replicas, one publish, and one query
#: answered over a raw loopback socket (the client is not serving
#: code).
SERVE_TCP = """
import json
import socket

from repro.api.codec import encode_request
from repro.api.envelopes import QueryRequest
from repro.cluster import Router
from repro.net.frame import FrameDecoder, encode_frame
from repro.net.server import RwsTcpServer, ServerThread, hello_message
from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.serve.service import RwsService

router = Router(RwsService(), 3)
with ServerThread(RwsTcpServer(router)) as harness:
    router.publish(RwsList(sets=[RelatedWebsiteSet(
        primary="example.com", associated=["example-news.com"],
        rationales={"example-news.com": "same brand"})]))
    with socket.create_connection(harness.server.address,
                                  timeout=10) as sock:
        sock.sendall(encode_frame(hello_message()) + encode_frame(
            encode_request(QueryRequest(host_a="www.example.com",
                                        host_b="example-news.com"))))
        decoder, answers = FrameDecoder(), []
        while len(answers) < 2:
            decoder.feed(sock.recv(65536))
            answers += decoder.frames()
hello, answer = (json.loads(frame) for frame in answers)
assert hello["ok"] and answer["payload"]["verdict"]["result"]["related"]
"""

FACADES = ("repro", "repro.workload", "repro.net", "repro.data",
           "repro.rws", "repro.obs")


def loaded_modules(code: str) -> list[str]:
    """The modules a fresh interpreter holds after ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code + report], env=env,
        capture_output=True, text=True, timeout=120, check=False)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def loaded_repro_modules(code: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    return [module for module in loaded_modules(code)
            if module == "repro" or module.startswith("repro.")]


class TestServingClosure:
    def test_serving_stack_imports_no_non_serving_module(self):
        loaded = loaded_repro_modules(SERVE)
        leaked = [module for module in loaded
                  if module.startswith(NOT_SERVING)]
        assert leaked == [], f"non-serving modules loaded: {leaked}"
        assert "repro.serve.service" in loaded  # the probe really served

    def test_tcp_server_maps_neither_asyncio_nor_openssl(self):
        loaded = loaded_modules(SERVE_TCP)
        leaked = [module for module in loaded
                  if module.startswith(NOT_SERVING)
                  or module in NOT_SERVING_STDLIB]
        assert leaked == [], f"non-serving modules loaded: {leaked}"
        assert "repro.cluster.router" in loaded  # the probe really served

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


class TestSha256:
    """The one SHA-256 helper: the interpreter's builtin, hashing
    exactly as ``hashlib`` does."""

    def test_helper_is_the_builtin_of_this_python(self):
        # 3.12 merged the builtin SHA-2 modules into ``_sha2``.
        name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
        try:
            builtin = importlib.import_module(name).sha256
        except ImportError:  # an interpreter built without it
            builtin = hashlib.sha256
        assert sha256 is builtin

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(max_size=300), max_size=8))
    def test_matches_hashlib_over_any_bytes_and_chunking(self, chunks):
        data = b"".join(chunks)
        digest = sha256()
        for chunk in chunks:
            digest.update(chunk)
        reference = hashlib.sha256(data)
        assert digest.digest() == reference.digest()
        assert digest.hexdigest() == sha256(data).hexdigest() \
            == reference.hexdigest()


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
