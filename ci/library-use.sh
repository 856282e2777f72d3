# README library use.
# Runs the README's "Library use" Python block (load_manifest, run_ga
# with an on_generation observer, evaluate, brute_force_weights,
# split_samples, restrict) as written, on the bundle that
# ci/quick-start.sh left in the same directory. The observer must print
# generations 0-4 in order, and the last line must be the report's NLL,
# above 0, and its accuracy, in [0, 100].
set -eo pipefail
dir="$RUNNER_TEMP/readme"
awk '/^## Library use/ {on = 1} on && /^```/ {n++; next} on && n == 1' README.md > "$dir/library.py"
cd "$dir"
python library.py | tee library.txt
sed '$d' library.txt | cut -d ' ' -f 1 > generations.txt
printf '%d\n' 0 1 2 3 4 | diff - generations.txt
tail -n 1 library.txt | python -c '
import sys
nll, accuracy = map(float, sys.stdin.read().split())
sys.exit(not (nll > 0 and 0 <= accuracy <= 100))'
