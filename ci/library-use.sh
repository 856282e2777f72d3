# README library use.
# Runs the README's "Library use" Python block (load_manifest, run_ga
# with an on_generation observer, evaluate, brute_force_weights,
# split_samples, restrict) as written, on the bundle that
# ci/quick-start.sh left in the same directory.
set -eo pipefail
dir="$RUNNER_TEMP/readme"
awk '/^## Library use/ {on = 1} on && /^```/ {n++; next} on && n == 1' README.md > "$dir/library.py"
cd "$dir"
python library.py
