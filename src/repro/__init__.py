"""Reproduction of "A First Look at Related Website Sets" (IMC 2024).

A full-stack, from-scratch implementation of everything the paper
measures: the Related Website Sets list model and validation bot, the
browser storage-partitioning policy RWS modifies, the crawling and
HTML-similarity tooling, the Forcepoint-style categoriser, the GitHub
governance pipeline, and the §3 user study — plus per-artefact analysis
pipelines that regenerate every table and figure, a serving layer
(:mod:`repro.serve`) that compiles the list into an indexed,
versioned, asynchronously-governed service, a typed and versioned
protocol layer (:mod:`repro.api`) that fronts that service with
request/response envelopes, a middleware chain, and a JSON wire
codec, a replicated cluster layer (:mod:`repro.cluster`) that spreads
reads across version-following replicas behind one router, a
workload engine (:mod:`repro.workload`) that synthesizes
browser-population traffic and drives it through the protocol
serially, across shards, and against replica clusters, and an
observability layer (:mod:`repro.obs`) — a unified metrics registry,
a deterministic request tracer whose digests are bit-identical across
shard counts and executors, and attachable stage profilers.

Quickstart::

    from repro.data import build_rws_list
    from repro.analysis import run_experiment
    from repro.serve import MembershipIndex

    rws_list = build_rws_list()
    index = MembershipIndex.from_list(rws_list)
    print(index.related("timesinternet.in", "indiatimes.com"))  # True
    result = run_experiment("F3")   # Figure 3 pipeline
    print(result.scalars)

See README.md for the architecture overview and the paper-to-module
map.
"""

__version__ = "1.4.0"

# Every SHA-256 in the package: the interpreter's builtin, so that no
# serving process maps OpenSSL's libcrypto, which ``hashlib`` loads
# only to compute it.  Same algorithm, so every hash and digest is
# unchanged.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:  # an interpreter built without the builtin
        from hashlib import sha256


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """A package façade's PEP 562 ``__getattr__``, ``__dir__`` and ``__all__``.

    ``exports`` maps each defining submodule to the public names the
    package re-exports from it.  A name's submodule is imported on
    first access and the value cached in ``namespace`` (the package's
    ``globals()``).  So importing one submodule loads only its own
    imports, which keeps the server's import closure to the code that
    serves (``tests/test_import_closure.py`` pins it by module name).
    """
    package = namespace["__name__"]
    origins = {name: module for module, names in exports.items()
               for name in names}

    def __getattr__(name: str):
        module = origins.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        import importlib

        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__, sorted(origins)


_EXPORTS = {
    "repro.api.dispatcher": ("Dispatcher",),
    "repro.api.envelopes": ("ApiError", "ErrorCode"),
    "repro.cluster.replica": ("Replica",),
    "repro.cluster.router": ("Router",),
    "repro.obs.profile": ("StageProfiler",),
    "repro.obs.registry": ("MetricsRegistry",),
    "repro.obs.trace": ("NULL_TRACER", "Tracer", "TraceSummary"),
    "repro.psl.lookup": ("PublicSuffixList", "default_psl"),
    "repro.rws.model": ("RelatedWebsiteSet", "RwsList"),
    "repro.rws.validation": ("Validator",),
    "repro.serve.epoch": ("Epoch",),
    "repro.serve.index": ("MembershipIndex",),
    "repro.serve.service": ("RwsService",),
    "repro.workload.driver": ("WorkloadResult", "run_workload"),
    "repro.workload.scenarios": ("SCENARIOS", "Scenario"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
