#!/usr/bin/env python3
"""Run every builtin suite through the CLI and print a summary table.

Exit code 0 when everything passes, 1 otherwise.
"""

import sys
import time
from pathlib import Path

# Import galdesk from this checkout's src/, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from galdesk import scenarios as sc  # noqa: E402


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    failures = 0
    total_start = time.monotonic()
    for entry in sc.list_builtins():
        t0 = time.monotonic()
        report = sc.run_builtin(entry["id"], seed, None)
        elapsed = time.monotonic() - t0
        ok = report["status"] == "pass"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL':>4}  {elapsed:6.2f}s  {entry['id']}")
        if not ok:
            for c in report["checks"]:
                if not c["pass"]:
                    print(f"          failing check: {c['name']}")
    print(f"total: {time.monotonic() - total_start:.1f}s, "
          f"{len(sc.list_builtins()) - failures}/{len(sc.list_builtins())} suites passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
