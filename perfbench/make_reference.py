"""Regenerate the stored reference outputs of the benchmark.

Run from the root of a checkout whose outputs are known good::

    python3 perfbench/make_reference.py [infer_resnet20] [finetune_resnet8]

It writes ``perfbench/reference/<workload>.npz`` with the outputs of the
current program on the workload's fixed input pool (about two minutes).
Only regenerate when a change is *meant* to alter emulated outputs; a speed
change must leave them identical.  ``serve_cnn16_open`` stores nothing: it
checks responses against direct session runs.
"""

from __future__ import annotations

import sys

from run import ROOT, import_program  # sets the BLAS thread count first

import numpy as np  # noqa: E402


def main(argv) -> int:
    import_program()
    from perfbench import finetune, infer
    from perfbench.common import REFERENCE_DIR

    workloads = {"infer_resnet20": infer, "finetune_resnet8": finetune}
    names = argv or sorted(workloads)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        arrays = workloads[name].make_reference()
        path = REFERENCE_DIR / f"{name}.npz"
        np.savez(path, **arrays)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
