"""Doctest run + docstring audit of the public ``__all__`` surface.

Two guarantees, wired into tier-1 so they cannot rot:

1. every doctest in the public-facing modules executes and passes (the
   examples in the docs are real, running code);
2. every non-module export of ``repro.__all__``, ``repro.api.__all__``,
   ``repro.serve.__all__``, and ``repro.plan.__all__`` carries a
   docstring *with an executable example* (a ``>>>`` block) — the
   documentation site renders these, so an undocumented export is a
   broken docs build too.
"""

import doctest
import importlib
import inspect
import tempfile

import pytest

import repro
import repro.api
import repro.plan
import repro.serve

#: modules whose doctests run as part of tier-1
DOCTEST_MODULES = [
    "repro.api.engines",
    "repro.api.experiment",
    "repro.api.session",
    "repro.api.specs",
    "repro.api.workloads",
    "repro.chaos.distributions",
    "repro.chaos.evaluate",
    "repro.chaos.scenarios",
    "repro.chaos.trace",
    "repro.cluster.failures",
    "repro.core.policies",
    "repro.core.replay",
    "repro.core.replication",
    "repro.core.selective",
    "repro.core.strategy",
    "repro.core.tlog",
    "repro.core.trainer",
    "repro.jobs.placement",
    "repro.jobs.spare",
    "repro.jobs.spec",
    "repro.obs.export",
    "repro.obs.recorder",
    "repro.obs.telemetry",
    "repro.parallel.instructions",
    "repro.parallel.programs",
    "repro.parallel.schedules",
    "repro.plan.autoplan",
    "repro.plan.objective",
    "repro.plan.report",
    "repro.plan.search",
    "repro.plan.space",
    "repro.serve.client",
    "repro.serve.drill",
    "repro.serve.netchaos",
    "repro.serve.protocol",
    "repro.serve.retry",
    "repro.serve.segments",
    "repro.serve.server",
    "repro.serve.state",
    "repro.serve.wal",
    "repro.utils.jsonl",
    "repro.utils.seeding",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests_pass(module_name, tmp_path, monkeypatch):
    # doctests make scratch dirs with tempfile.mkdtemp(); root them in
    # tmp_path so pytest's own cleanup removes them
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    module = importlib.import_module(module_name)
    result = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    )
    assert result.failed == 0, (
        f"{module_name}: {result.failed} doctest failure(s)"
    )


def _audit_surface():
    """(qualname, object) for every documented export under audit."""
    seen = {}
    for module in (repro, repro.api, repro.plan, repro.serve):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.ismodule(obj):
                continue  # submodules document themselves
            if not (inspect.isclass(obj) or callable(obj)):
                continue  # plain constants (__version__) carry no docstring
            seen.setdefault(f"{type(obj).__name__}:{name}", obj)
    return sorted(seen.items())


@pytest.mark.parametrize(
    "qualname,obj",
    _audit_surface(),
    ids=[q for q, _ in _audit_surface()],
)
def test_export_has_docstring_with_example(qualname, obj):
    doc = inspect.getdoc(obj)
    assert doc, f"{qualname} is exported but has no docstring"
    assert ">>>" in doc, (
        f"{qualname}: docstring has no executable example (>>> block)"
    )


def test_doctest_modules_cover_every_export():
    """Every audited export's defining module is in the doctest run."""
    for _, obj in _audit_surface():
        target = obj if inspect.isclass(obj) or inspect.isfunction(obj) \
            else type(obj)
        module = target.__module__
        assert module in DOCTEST_MODULES, (
            f"{module} defines an audited export but its doctests "
            "never run; add it to DOCTEST_MODULES"
        )
