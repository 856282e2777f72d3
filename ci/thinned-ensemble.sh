# A thinned ensemble through the console script.
# evaluate --subset reads only the kept classifiers' CSVs and the
# labels, so with the unselected net_d.csv moved away it must write
# the same report bytes. The file is put back for the later steps.
# A --subset that names no classifier exits 1 with one error line.
set -eo pipefail
cd "$RUNNER_TEMP/readme"
args=(evaluate --manifest bundle/manifest.json --weights weights.json --subset net_a,net_b --format json)
softvote "${args[@]}" --out thinned.json
mv bundle/net_d.csv net_d.csv.away
softvote "${args[@]}" --out thinned-without-net_d.json
cmp thinned.json thinned-without-net_d.json
mv net_d.csv.away bundle/net_d.csv
status=0
softvote evaluate --manifest bundle/manifest.json --subset " , " 2> empty-subset.txt || status=$?
cat empty-subset.txt >&2
test "$status" -eq 1
echo 'error: subset needs at least one classifier name' | diff - empty-subset.txt
