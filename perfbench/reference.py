"""Reference set-up for ``setup_s``: ``import numpy`` in a fresh interpreter.

    python3 perfbench/reference.py        # prints {"seconds": ...}

lmcanal's set-up is import work: reading and unmarshalling bytecode,
loading numpy's shared libraries, running module bodies.  Its speed on the
reference machine follows the pure-Python kernel of speed.py less closely
than the program's computation does, so set-up is corrected with a probe of
the same kind of work that does not depend on lmcanal: numpy's own import,
about half of lmcanal's set-up.  Measured on the reference machine, in a
10-minute loop of alternating set-up-only processes and this probe:
15-second medians of the set-up time ranged over +-15% in wall seconds,
+-9% corrected by the kernel, +-4% as a ratio to this probe.
"""

import json
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

print(json.dumps({"seconds": time.perf_counter() - start}))
