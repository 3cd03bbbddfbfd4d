"""Write ``reference.json``: the ladder's robust values at the current source.

    python3 perfbench/make_reference.py

The eval-ladder check requires every later commit to reproduce these values
to 1e-9 relative, so regenerate the file only when a change of the values is
intended and says so.
"""

from __future__ import annotations

import json

from run import use_checkout_source

use_checkout_source()

import workloads  # noqa: E402


def main() -> None:
    values = {}
    for table in (workloads.WORKLOADS, workloads.TINY):
        ladder = table["eval-ladder"]
        outputs = ladder.operate(ladder.setup(0))
        for spec, out in zip(ladder.specs, outputs):
            for mode in ("pessimistic", "optimistic"):
                values[workloads.reference_key(spec, mode)] = getattr(out, mode).at_initial
    workloads.REFERENCE.write_text(json.dumps({
        "note": "robust values (tol 1e-9) of the fixed ladder controllers",
        "values": values,
    }, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
