"""Set-up probe: import hhx and load what a workload's jobs load.

Run as `python probe.py LOADS_JSON` with hhx importable. For each load it
builds (and so validates) the space, takes its sweep closure and, for a
cohomology job, loads the algebra and module; it does no cochain work.
Prints {"import_s", "load_s"} measured inside the process.
"""

import json
import sys
import time

t0 = time.perf_counter()
from hhx import builtin_space, field_from_text, sweep_closure  # noqa: E402
from hhx.coeffalg import load_algebra, load_module  # noqa: E402
from hhx.simplicial import load_space  # noqa: E402

t1 = time.perf_counter()
for spec in json.loads(sys.argv[1]):
    kind, value = spec["space"]
    space = builtin_space(value) if kind == "--builtin" else load_space(value)
    partition = sweep_closure(space)
    if "algebra" in spec:
        field = field_from_text(spec["field"]) if spec["field"] else None
        algebra = load_algebra(spec["algebra"], field=field)
        load_module(spec["module"], algebra, partition)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
