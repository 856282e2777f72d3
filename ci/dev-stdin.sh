# A bad row piped to /dev/stdin through the console script.
# A manifest may list /dev/stdin as a classifier. A pipe can be read
# only once, so the row error must come from the text already read,
# not from a second open. Warnings are errors here, so a numpy
# warning would show as a traceback.
set -eo pipefail
cd "$RUNNER_TEMP/readme"
# stdin.json lists /dev/stdin in place of the first classifier,
# whose file, with p0 = 2.0 in its second data row (row 3), is piped in.
first=$(python -c 'import json; m = json.load(open("bundle/manifest.json")); print(m["classifiers"][0]["path"]); m["classifiers"][0]["path"] = "/dev/stdin"; json.dump(m, open("bundle/stdin.json", "w"))')
status=0
sed '3s/,[^,]*/,2.0/' "bundle/$first" | PYTHONWARNINGS=error timeout 60 softvote evaluate --manifest bundle/stdin.json 2> stderr.txt || status=$?
cat stderr.txt >&2
test "$status" -eq 1
# Exactly one line: the row error, and no Traceback.
echo 'error: /dev/stdin: row 3: probability outside [0, 1]' | diff - stderr.txt
