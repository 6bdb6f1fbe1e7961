"""Time the program's set-up in a fresh interpreter.

Usage: ``python3 setup_probe.py CONFIG.json`` with ``rmoa`` importable.
Prints the seconds spent importing ``rmoa``, parsing the run config,
building the backends and loading the prompt set.
"""

import sys
import time

start = time.perf_counter()

from rmoa.config import build_backends, load_config  # noqa: E402
from rmoa.prompts import load_prompt_set  # noqa: E402

config = load_config(sys.argv[1])
build_backends(config)
load_prompt_set(config.run.benchmark, config.prompt_dir)
print(repr(time.perf_counter() - start))
