# README quick start through the console script.
# Runs the README's quick-start block (simulate, search-weights,
# evaluate --format table) as written, in "$RUNNER_TEMP/readme", which the
# later ci/ scripts use. Its stderr is kept in stderr.txt and then shown;
# search-weights must print generations 0-4 in order and then its
# full-data NLL.
set -eo pipefail
: "${RUNNER_TEMP:?must name a scratch directory}"
dir="$RUNNER_TEMP/readme"
mkdir -p "$dir"
awk '/^## Quick start/ {on = 1} on && /^```/ {n++; next} on && n == 1' README.md > "$dir/quickstart.sh"
cd "$dir"
status=0
bash -euo pipefail quickstart.sh 2> stderr.txt | tee report.txt || status=$?
cat stderr.txt >&2
test "$status" -eq 0
grep -q '^Accuracy: ' report.txt
grep -E '^(generation |full-data nll: )' stderr.txt | sed -E 's/=.*//; s/: [0-9.]+$/:/' > got.txt
{ printf 'generation %d: best_nll\n' 0 1 2 3 4; echo 'full-data nll:'; } | diff - got.txt
