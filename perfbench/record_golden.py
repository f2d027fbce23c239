"""Record the reference outputs that ``checks.py`` compares against.

    python3 perfbench/record_golden.py

Run from the repository root on the commit whose behaviour is the contract.
It writes ``golden/cochain.json`` and ``golden/search.json`` (seed-0 stdout of
every command) and ``golden/dense_reference.json`` (the basis-invariant
fields of ``analyze`` on each catalog entry that ``dense`` transforms).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import SRC, Caches, import_sympla, run_pass


def main() -> int:
    sys.path.insert(0, str(SRC))
    cli, search = import_sympla()
    caches = Caches(search)
    checks.GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for workload in ("cochain", "search"):
            inputs = workloads.make_inputs(workload, 0, Path(tmp), 1)
            _, outcomes = run_pass(cli, caches, inputs.passes[0])
            bad = [o.command.label for o in outcomes if o.code != 0]
            if bad:
                print(f"commands failed: {bad}", file=sys.stderr)
                return 1
            golden = {o.command.label: o.stdout for o in outcomes}
            (checks.GOLDEN / f"{workload}.json").write_text(
                json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    reference = {}
    for spec in workloads.DENSE_ENTRIES:
        caches.reset()
        code, stdout = cli.run(["analyze", "catalog:" + spec])
        if code != 0:
            print(f"analyze catalog:{spec} failed", file=sys.stderr)
            return 1
        payload = json.loads(stdout)
        reference[spec] = {f: payload[f] for f in checks.INVARIANT_FIELDS}
    (checks.GOLDEN / "dense_reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
