"""Golden CLI transcripts: every corpus command prints what it printed before.

``data/cli_golden.json`` maps ``"<system> <command>"`` to the exit code and
stdout of that command at default flags, for each of the 8 corpus files and
the commands ``check``, ``check --variant``, ``flat-output``,
``transform --save``, the saved map itself, ``verify --transform`` of
that map and ``verify --evidence``.  Paths are replaced by ``<corpus>`` and
``<tmp>``, so the file does not depend on where the repository or the
temporary directory lives.  All commands run in one fresh process under
``PYTHONHASHSEED=0``.  A change that alters an output must list each changed
entry in CHANGES.md.

Re-record with ``PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
SYSTEMS = (
    "academic10", "chained4", "extchained5", "product", "sin", "sqrt", "template", "vtol",
)


def cli_transcripts():
    """{"<system> <command>": {"exit": code, "stdout": text}} for the corpus."""
    import triflat
    from triflat.cli import main

    corpus = str(Path(triflat.__file__).parent / "corpus")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:

        def run(key, *argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            text = buf.getvalue().replace(corpus, "<corpus>").replace(tmp, "<tmp>")
            out[key] = {"exit": code, "stdout": text}

        for name in SYSTEMS:
            path = os.path.join(corpus, name + ".sys")
            saved = os.path.join(tmp, name + ".json")
            run(f"{name} check", "check", path)
            run(f"{name} check --variant", "check", path, "--variant")
            run(f"{name} flat-output", "flat-output", path)
            run(f"{name} transform --save", "transform", path, "--save", saved)
            if os.path.exists(saved):
                with open(saved) as fh:
                    payload = json.load(fh)
                payload.pop("original")
                out[f"{name} saved map"] = payload
            run(f"{name} verify --transform", "verify", path, "--transform", saved)
            run(f"{name} verify --evidence", "verify", path, "--evidence")
    return out


def test_cli_transcripts_match_golden():
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    code = "import json, test_cli_golden as g; print(json.dumps(g.cli_transcripts()))"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert changed == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cli_transcripts(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
