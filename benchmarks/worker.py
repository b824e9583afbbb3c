"""One part of one benchmark iteration, in a fresh interpreter.

Usage: python3 benchmarks/worker.py --part NAME --seed N --out DIR
           --t0 MONOTONIC [--trace]

Imports fraclab from the checkout's src/, builds the inputs of one part
(workloads.PARTS), runs it once (with spans around every traced call when
--trace is given), hashes the artifact tree it wrote, and prints one JSON object as its last
line of output.  --t0 is the parent's time.monotonic() just before it
started this process, so setup_s covers interpreter start, imports and
input generation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    sys.path.insert(0, SRC)
    import fraclab

    where = os.path.dirname(os.path.abspath(fraclab.__file__))
    if where != os.path.join(SRC, "fraclab"):
        raise ImportError(f"fraclab imported from {where}, not from {SRC}")


def artifact_digests(out_dir):
    """sha256 of every file under out_dir, keyed by relative path."""
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(files.items()))


def tree_digest(files):
    h = hashlib.sha256()
    for rel, digest in files.items():
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


def environment():
    import numpy as np
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    setup, run = workloads.PARTS[args.part]
    inputs = setup(args.seed)
    setup_s = time.monotonic() - args.t0

    from tracer import Tracer, peak_rss_mb

    tracer = None
    if args.trace:
        from fraclab import quadrature

        corner_cache = quadrature.cell_corner_weights
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("bench." + args.part, run)

    gates = workloads.Gates()
    os.makedirs(args.out, exist_ok=True)
    t_start = time.perf_counter()
    ref_err = run(inputs, args.out, gates)
    wall_s = time.perf_counter() - t_start
    peak_mb = peak_rss_mb()

    files = artifact_digests(args.out)
    result = {
        "part": args.part, "seed": args.seed, "traced": args.trace,
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_mb,
        "ref_err": ref_err, "gates": gates.items, "files": files,
        "digest": tree_digest(files),
        "artifact_bytes": sum(os.path.getsize(os.path.join(r, f))
                              for r, _, fs in os.walk(args.out) for f in fs),
        "env": environment(),
    }
    if tracer is not None:
        info = corner_cache.cache_info()
        result["trace"] = {
            "stats": tracer.stats, "spans": tracer.spans,
            "bookkeeping_s": tracer.bookkeeping_s,
            "self_time_sum": tracer.self_time_sum(),
            "corner_cache": {"hits": info.hits, "misses": info.misses},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
