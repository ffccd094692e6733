"""The committed benchmark: five workloads, two clocks, one ruler.

``BENCHMARK.json`` at the repo root names the command, the workloads and
every metric; ``bench/README.md`` is the glossary.  Only a
``benchmark``-archetype PR may touch this package or that file.
"""

import os

#: records, spans and journals of a run go here (git-ignored)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
