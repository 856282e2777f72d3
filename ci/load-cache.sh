# Load cache through the console script.
# The quick start's simulate wrote a cache entry beside each of the
# bundle's CSVs, and its later commands only hit them. An evaluate
# served from it, and one after deleting it, must both write the
# report bytes that a first evaluate wrote, and the cold evaluate must
# rebuild the entries simulate wrote, byte for byte. Then one CSV gets
# CRLF line ends: its entry is stale, the file parses to the same values,
# and both the evaluate that re-reads it and the warm one after it must
# write the first report's bytes again.
set -eo pipefail
cd "$RUNNER_TEMP/readme"
test -d bundle/.softvote-cache
args=(evaluate --manifest bundle/manifest.json --weights weights.json --format json)
softvote "${args[@]}" --out first.json
softvote "${args[@]}" --out warm.json
cmp first.json warm.json
cp -r bundle/.softvote-cache simulated-cache
rm -r bundle/.softvote-cache
softvote "${args[@]}" --out cold.json
cmp first.json cold.json
diff -r simulated-cache bundle/.softvote-cache
sed -i 's/$/\r/' bundle/net_c.csv
softvote "${args[@]}" --out stale.json
cmp first.json stale.json
old=simulated-cache/net_c.csv.entry new=bundle/.softvote-cache/net_c.csv.entry
if cmp -s "$old" "$new"; then exit 1; fi  # a new key, over the same ids and values
cmp <(tail -n +2 "$old") <(tail -n +2 "$new")
softvote "${args[@]}" --out rewarmed.json
cmp first.json rewarmed.json
