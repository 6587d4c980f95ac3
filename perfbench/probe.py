"""One set-up: import cbfsynth, load a config, build its system.

Prints one JSON line with the monotonic clock reading when set-up finished
plus the config-load and system-build times. The parent process subtracts
its own clock reading taken just before it started this one.

    python3 perfbench/probe.py perfbench/pipeline.cfg
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbfsynth.config import load_config  # noqa: E402
from cbfsynth.system import build_system  # noqa: E402

t0 = time.perf_counter()
cfg = load_config(sys.argv[1])
t1 = time.perf_counter()
build_system(cfg.system_name, cfg.system_params)
t2 = time.perf_counter()
print(json.dumps({"ready": t2, "load_s": t1 - t0, "build_s": t2 - t1}))
