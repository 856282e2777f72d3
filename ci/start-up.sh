# Start-up through the installed package.
# `import softvote` loads a module only when one of its names is first
# used, so it must not load numpy. The CLI starts OpenBLAS with one
# thread unless OPENBLAS_NUM_THREADS is set; the quick start's report
# must be the same bytes with 4 threads as without the variable.
set -eo pipefail
cd "$RUNNER_TEMP/readme"
python -c "import sys, softvote; assert 'numpy' not in sys.modules"
args=(evaluate --manifest bundle/manifest.json --weights weights.json --format json)
env -u OPENBLAS_NUM_THREADS softvote "${args[@]}" --out unset.json
OPENBLAS_NUM_THREADS=4 softvote "${args[@]}" --out four.json
cmp unset.json four.json
