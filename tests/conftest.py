import collections
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` wraps each named function of ``module``; the Counter it returns counts calls."""
    def patch(module, *names):
        calls = collections.Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls
    return patch
