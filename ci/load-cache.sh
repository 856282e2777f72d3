# Load cache through the console script.
# The quick start's simulate wrote a cache entry beside each of the
# bundle's CSVs, and its later commands only hit them. An evaluate
# served from it, and one after deleting it, must both write the
# report bytes that a first evaluate wrote, and the cold evaluate must
# rebuild the entries simulate wrote, byte for byte.
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
