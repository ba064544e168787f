"""Time the set-up a CLI user pays before any work, in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>   # import unispan, build inputs
    python3 perfbench/setup_probe.py --reference         # import REFERENCE_MODULES

Prints the seconds taken.  ``run.py`` runs both kinds in turn, each in a
fresh process, and reports the median of the first scaled by
``NOMINAL_REFERENCE_S`` over the median of the second: the ``setup_s``
metric.  The reference imports a fixed set of standard-library modules
that neither unispan nor NumPy loads: a set-up of the same kind (finding,
reading and executing modules, loading extension modules), so it slows
with the host as the package's import does.  On a 2-vCPU shared host, over
stretches of five probes, the log of the package's set-up time followed
the log of the reference's with a slope of 0.83, against 0.55 for the
computation in ``reference.py``.  Timing happens here rather than around
the whole process because ``subprocess`` polls a child that has a timeout
in steps of up to 50 ms.
"""

import sys
import time

REFERENCE_MODULES = (
    "asyncio", "concurrent.futures", "configparser", "csv", "decimal", "difflib",
    "email.mime.multipart", "fractions", "gzip", "http.client", "logging.handlers",
    "multiprocessing", "plistlib", "pydoc", "smtplib", "tarfile", "unittest",
    "urllib.request", "uuid", "xml.dom.minidom", "xml.etree.ElementTree",
)
# Seconds the reference import takes at nominal host speed: about its
# fastest time on an otherwise idle 2-vCPU x86-64 host (Python 3.11).
NOMINAL_REFERENCE_S = 0.09


def main() -> None:
    start = time.perf_counter()
    if sys.argv[1:] == ["--reference"]:
        import importlib

        for name in REFERENCE_MODULES:
            importlib.import_module(name)
    else:
        import runenv

        runenv.prepare()
        import workloads

        workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
