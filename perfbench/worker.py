"""One side of a measurement: the program or the speed reference, in its own process.

    python3 perfbench/worker.py {program,reference}

``run.py`` starts one worker of each kind and sends both the same requests,
one JSON object per stdin line; a worker answers each with one JSON line on
stdout.  ``program`` imports ``sympla`` from ``src/``; ``reference`` imports
it from ``reference/``, a copy of ``src/sympla`` as it was when the benchmark
was defined, which never changes.  ``run.py`` times the requests: a worker
runs only in its turns and is stopped in between.

Requests:

- ``{"op": "setup", "workload": w, "seed": n, "passes": k, "workdir": path}``:
  import sympla afresh and generate the workload's inputs into a directory
  named after the worker's side in ``workdir`` (removed afterwards); answers
  ``{}``.
- ``{"op": "run", "argv": [...]}``: clear the search caches and call
  ``sympla.cli.run``; answers ``{"code": c, "stdout": text}``, or
  ``{"code": null, "error": text}`` when it raised.
- ``{"op": "rss"}``: answers ``{"peak_rss_mb": m}``, this process's ``ru_maxrss``.

End of input ends the process.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import resource
import shutil
import signal
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SOURCES = {"program": HERE.parent / "src", "reference": HERE / "reference"}
PR_SET_PDEATHSIG = 1


def import_sympla():
    """Import sympla afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "sympla" or m.startswith("sympla.")]:
        del sys.modules[name]
    return importlib.import_module("sympla.cli"), importlib.import_module("sympla.search")


def answer(req: dict, state: dict) -> dict:
    if req["op"] == "setup":
        workdir = Path(req["workdir"]) / state["side"]
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        state["cli"], state["search"] = import_sympla()
        workloads.make_inputs(req["workload"], req["seed"], workdir, req["passes"])
        shutil.rmtree(workdir, ignore_errors=True)
        return {}
    if req["op"] == "run":
        search = state["search"]
        search.symplectic_rank_bounds.cache_clear()
        search._enumerate_cached.cache_clear()
        try:
            code, stdout = state["cli"].run(list(req["argv"]))
        except Exception as exc:  # a command that raises counts as failed
            return {"code": None, "error": f"{type(exc).__name__}: {exc}"}
        return {"code": code, "stdout": stdout}
    if req["op"] == "rss":
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raise ValueError(f"unknown request {req['op']!r}")


def main(argv: list[str]) -> int:
    try:  # end with run.py even if it is killed
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    sys.path.insert(0, str(SOURCES[argv[0]]))
    # Answers go to the original stdout; anything the program prints goes to stderr.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    state = {"side": argv[0]}
    state["cli"], state["search"] = import_sympla()
    for line in sys.stdin:
        out.write(json.dumps(answer(json.loads(line), state)) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
