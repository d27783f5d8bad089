# Anchors pytest's rootdir so that sibling helper modules (oracles.py) are
# importable from every test file.
import os

# tnm.mle sets these only when numpy is not loaded yet, and some test modules
# import numpy first.  pytest loads this file before any test module, so the
# solver always runs with one BLAS thread here, as it does in `tnm` and in
# test_golden.py's recorder: counts and digests the tests pin do not depend on
# which modules are collected or on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
