"""Set-up probe: import beambench and load one config, then report.

Usage: python3 bench/probe.py CONFIG

Prints one JSON object: `loaded`, the wall-clock time (time.time())
at which the config was loaded, so the caller can subtract the time it
started this interpreter; `import_s`, the seconds spent importing
beambench; and `load_config_s`, the seconds spent in `load_config`.
"""

import json
import sys
import time

started = time.perf_counter()
from beambench.config import load_config  # noqa: E402  (imports all of beambench)

imported = time.perf_counter()
load_config(sys.argv[1])
loaded = time.perf_counter()
print(
    json.dumps(
        {
            "loaded": time.time(),
            "import_s": imported - started,
            "load_config_s": loaded - imported,
        }
    )
)
