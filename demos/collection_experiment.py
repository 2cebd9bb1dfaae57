"""End-to-end run on user-supplied sparse matrices from a collection.

Download Matrix Market files (for example lp_bnl2, TF15, or ch from the
SuiteSparse Matrix Collection) into a directory and point this script at
them. For each matrix it plants a solution with the standard construction,
solves with an inner-CG pinv(G) application, and writes the convergence
history and summary next to the inputs. Nothing is downloaded here.

Usage:  python collection_experiment.py /path/to/mtx/dir [name ...]
"""

import os
import sys

from glskit.cli import main as cli


def run(root, name, regularizer):
    matrix = os.path.join(root, f"{name}.mtx")
    if not os.path.exists(matrix):
        print(f"skipping {name}: {matrix} not found")
        return
    gen_dir = os.path.join(root, f"{name}_problem")
    code = cli([
        "gen-problem", "--A", matrix, "--L", regularizer,
        "--func", "trig", "--seed", "1", "--out-dir", gen_dir,
    ])
    if code != 0:
        print(f"{name}: problem generation failed ({code})")
        return
    out = os.path.join(root, f"{name}_run")
    code = cli([
        "solve",
        "--A", os.path.join(gen_dir, "A.mtx"),
        "--L", os.path.join(gen_dir, "L.mtx"),
        "--b", os.path.join(gen_dir, "b.mtx"),
        "--x-true", os.path.join(gen_dir, "x_true.mtx"),
        "--gdag", "lsqr:1e-8", "--tol", "1e-8", "--max-iter", "2000",
        "--out-dir", out,
    ])
    print(f"{name}: exit {code}, history and summary in {out}")


def main(argv):
    if not argv:
        print(__doc__)
        return
    root = argv[0]
    names = argv[1:] or ["lp_bnl2", "TF15", "ch"]
    stencils = {"lp_bnl2": "l1", "TF15": "l2", "ch": "l1"}
    for name in names:
        run(root, name, stencils.get(name, "l1"))


if __name__ == "__main__":
    main(sys.argv[1:])
