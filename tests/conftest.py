import numpy as np
import pytest


@pytest.fixture
def record_maximizer(monkeypatch):
    """Wrap a module's maximize_1d; the list it returns gets (result, points the objective saw) per call."""

    def install(module):
        calls = []
        maximize = module.maximize_1d

        def recording(objective, tol):
            seen = []

            def counted(t):
                seen.append(np.size(t))
                return objective(t)

            r = maximize(counted, tol)
            calls.append((r, sum(seen)))
            return r

        monkeypatch.setattr(module, "maximize_1d", recording)
        return calls

    return install
