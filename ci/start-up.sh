# Start-up through the installed package.
# `import softvote` loads a module only when one of its names is first
# used, so it must not load numpy. The CLI starts OpenBLAS with one
# thread unless OPENBLAS_NUM_THREADS is set; the quick start's report
# must be the same bytes with 4 threads as without the variable. Only
# simulate and search-weights draw random numbers, so --help, evaluate,
# fuse and report must not import numpy.random, which costs each process
# about 13 ms and 6 MB of peak RSS.
set -eo pipefail
cd "$RUNNER_TEMP/readme"
python -c "import sys, softvote; assert 'numpy' not in sys.modules"
args=(evaluate --manifest bundle/manifest.json --weights weights.json --format json)
env -u OPENBLAS_NUM_THREADS softvote "${args[@]}" --out unset.json
OPENBLAS_NUM_THREADS=4 softvote "${args[@]}" --out four.json
cmp unset.json four.json
no_random='
import sys
from softvote.cli import cli
try:
    cli(sys.argv[1:])
except SystemExit as stop:
    if stop.code:
        raise
assert "numpy.random" not in sys.modules, f"softvote {sys.argv[1]} imported numpy.random"'
python -c "$no_random" --help > /dev/null
python -c "$no_random" "${args[@]}" --out no-random.json
python -c "$no_random" fuse --manifest bundle/manifest.json --weights weights.json --out no-random.csv
python -c "$no_random" report unset.json > /dev/null
