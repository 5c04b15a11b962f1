"""Run the rds CLI with the enumeration stubbed out, to time set-up alone.

    python3 bench/setup_probe.py <rds arguments>

Everything a real run does before its first candidate still happens:
interpreter start, the rds import, argument parsing and the pool build for
every bound.  ``rds.search.run_enumeration`` returns no solutions instead of
searching.  Exits 3 if the stub was never reached, so a probe can never
silently time a full search.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rds.search

    stub_calls = []

    def no_enumeration(config, pool, stop_after_ranges=None):
        stub_calls.append(config)
        return {}, True

    rds.search.run_enumeration = no_enumeration

    import rds.cli

    rc = rds.cli.main(sys.argv[1:])
    if not stub_calls:
        print("setup_probe: the enumeration was never reached", file=sys.stderr)
        sys.exit(3)
    sys.exit(rc)
