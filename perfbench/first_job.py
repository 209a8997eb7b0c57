"""Run one job in a fresh interpreter, for timing set-up.

    python3 perfbench/first_job.py <workload> <job.json>

run.py times this process from spawn to exit, so ``setup_s`` covers the
interpreter start, importing wrightlens and the workload's first job, but
not generating its inputs, which run.py did beforehand.
"""

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402


def main() -> int:
    workload, spec = sys.argv[1], Path(sys.argv[2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            jobs.run_job(workload, json.loads(spec.read_text()), spec.parent)
        except Exception:  # a past-cap job raising is its normal outcome; run.py records it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
