"""Run one nsstab subcommand the way the command line does, and time its set-up.

    python3 child.py --src SRC --result RESULT.json [--trace] SUBCOMMAND CONFIG

The script imports ``nsstab.cli`` from SRC, parses CONFIG with
``parse_config`` and hands both to ``run_subcommand``, as ``nsstab
SUBCOMMAND --config CONFIG`` does.  Set-up ends once the config is parsed.
RESULT.json receives the clock readings (``time.monotonic``, shared by all
processes of the machine), the BLAS thread counts in effect and, with
``--trace``, the spans and counts of the wrapped layer functions.  Errors
propagate, so a failed subcommand exits with a nonzero status and a
traceback on stderr.
"""

import argparse
import json
import logging
import os
import sys
import time


def blas_threads() -> dict:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    import ctypes

    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return counts
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                counts[os.path.basename(path)] = func()
                break
    return counts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("subcommand")
    parser.add_argument("config")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)  # as the nsstab entry point does

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    t_import = time.monotonic()
    import nsstab.cli as cli

    t_imported = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"nsstab.cli was imported from {cli.__file__}, not from {src}")
    config = cli.parse_config(args.config)
    t_parsed = time.monotonic()
    record = {"import": [t_import, t_imported], "config": [t_imported, t_parsed]}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_run = time.monotonic()
    cli.run_subcommand(args.subcommand, config)
    record["subcommand"] = [t_run, time.monotonic()]
    record["blas_threads"] = blas_threads()
    if tracer is not None:
        record.update(tracer.dump())
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
