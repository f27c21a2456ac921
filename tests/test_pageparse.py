"""The page parse on every other installed CPython >= 3.10.

Plain-markup events must not depend on the interpreter.  Each interpreter
found loads ``pageparse.py`` and ``errors.py`` by file path under a stand-in
parent package, so neither ``tabevade/__init__.py`` nor numpy is imported,
and runs both parsers over near-grammar pages this interpreter wrote.
"""
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from test_webfeatures import _near_grammar_documents

from tabevade import pageparse
from tabevade.pageparse import _tokenize_plain

RUNNING = ".".join(map(str, sys.version_info[:3]))

# argv: the package's source directory, then a JSON file of pages
_CHILD = r"""
import hashlib, importlib, json, sys, types

package = types.ModuleType("stdlib_only")
package.__path__ = [sys.argv[1]]
sys.modules["stdlib_only"] = package
pageparse = importlib.import_module("stdlib_only.pageparse")
assert "numpy" not in sys.modules and "tabevade" not in sys.modules
with open(sys.argv[2], encoding="utf-8") as handle:
    pages = json.load(handle)
tokens = [pageparse._tokenize_plain(html) for html in pages]
print(json.dumps({
    "accepted": sum(events is not None for events in tokens),
    "mismatched": [i for i, (html, events) in enumerate(zip(pages, tokens))
                   if events is not None and events != pageparse._parse_events(html)],
    "digest": hashlib.sha256(json.dumps(tokens).encode()).hexdigest(),
}))
"""


def _run(command: list[str]) -> tuple[int, str, str]:
    """(returncode, stdout, stderr); returncode -1 when the command did not start or finish."""
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return -1, "", str(exc)
    return done.returncode, done.stdout, done.stderr


def _run_all(commands: dict[str, list[str]]) -> dict[str, tuple[int, str, str]]:
    """Every command's result, the commands run at once."""
    with ThreadPoolExecutor(max_workers=max(1, len(commands))) as pool:
        return dict(zip(commands, pool.map(_run, commands.values())))


def _other_interpreters() -> tuple[dict[str, str], list[str]]:
    """{full version: executable} of each CPython >= 3.10 but the running one, and the candidates that did not start."""
    candidates = sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.*/bin/python")))
    candidates += [path for minor in range(10, 30) if (path := shutil.which(f"python3.{minor}"))]
    probe = "import sys; print('.'.join(map(str, sys.version_info[:3])), sys.executable)"
    found: dict[str, str] = {}
    failed = []
    # a pyenv shim for a version that is not selected exits with an error
    for path, (returncode, out, _) in _run_all({path: [path, "-I", "-S", "-c", probe] for path in candidates}).items():
        if returncode != 0 or len(out.split()) != 2:
            failed.append(path)
            continue
        version, executable = out.split()
        if tuple(map(int, version.split("."))) >= (3, 10) and version != RUNNING:
            found.setdefault(version, executable)
    return found, failed


def test_plain_markup_events_match_on_every_other_installed_cpython(tmp_path):
    interpreters, failed = _other_interpreters()
    if not interpreters:
        pytest.skip(f"no CPython >= 3.10 other than {RUNNING} found; did not start: {failed}")
    pages = [page.html for page in _near_grammar_documents(400, seed=3)]
    tokens = [_tokenize_plain(html) for html in pages]
    digest = hashlib.sha256(json.dumps(tokens).encode()).hexdigest()
    pages_file = tmp_path / "pages.json"
    pages_file.write_text(json.dumps(pages), encoding="utf-8")
    source = os.path.dirname(pageparse.__file__)
    outputs = _run_all({version: [path, "-I", "-c", _CHILD, source, str(pages_file)]
                        for version, path in interpreters.items()})
    for version, (returncode, out, err) in outputs.items():
        assert returncode == 0, f"{version} ({interpreters[version]}): {err}"
        result = json.loads(out)
        assert result["accepted"] == sum(events is not None for events in tokens), version
        assert result["mismatched"] == [], version
        assert result["digest"] == digest, version
