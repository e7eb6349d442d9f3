"""Set-up probe: import scalefield, parse and validate one scenario, then
print "ready".  ``run.py`` times a fresh interpreter running this file up to
that line, which is the wait a command-line user has before any task runs.

Usage: python3 perfbench/setup_probe.py SCENARIO.json  (src/ on PYTHONPATH)
"""

import sys

import scalefield

scalefield.validate_scenario(scalefield.parse_scenario(sys.argv[1]))
print("ready", flush=True)
