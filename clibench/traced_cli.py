"""Run one deltaseq command with span tracing and write the spans as JSON.

    python traced_cli.py SPANS.json deltaseq-arguments...

The command behaves as ``deltaseq deltaseq-arguments...`` would: same
stdout, same files, same exit code. ``deltaseq`` must be importable (the
benchmark puts ``src`` on ``PYTHONPATH``). The spans file also records when
``cli.main`` started, so the caller can tell interpreter start-up from work,
and the ``cache_info()`` of the exact p-value caches.
"""

from __future__ import annotations

import json
import sys
import time

from spantrace import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from deltaseq import cli, kstest

    tracer = Tracer()
    tracer.install()
    main_start = time.monotonic()
    code = tracer.call("cli.main", cli.main, (argv,))
    caches = {name: getattr(kstest, name).cache_info()._asdict()
              for name in ("_pvalue_from_scaled", "_counts_within_lattice")}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"main_start": main_start, "spans": tracer.spans, "caches": caches}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
