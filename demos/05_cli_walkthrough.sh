#!/bin/sh
# Full command-line chain on a small generated corpus:
#   phantom -> bank build -> score -> eval -> localize -> segment-eval
# Everything is seeded; re-running reproduces identical output bytes.
set -eu

# from a checkout without an installed console script, run the package in src/
src_dir="$(cd "$(dirname "$0")/../src" && pwd)"
command -v mvpad >/dev/null 2>&1 || mvpad() { PYTHONPATH="$src_dir${PYTHONPATH:+:$PYTHONPATH}" python3 -m mvpad "$@"; }

WORK="$(mktemp -d /tmp/mvpad_cli_demo.XXXXXX)"
echo "working in $WORK"
cd "$WORK"

cat > config.json <<'EOF'
{"canvas": [96, 96], "seed": 13}
EOF

mvpad phantom --normal 12 --abnormal 2 --seed 13 --out data

# split the manifest: 8 normals train, 2 calibrate, 2 normal + 2 abnormal test
head -n 1 data/manifest.csv > data/train.csv
sed -n '2,9p'   data/manifest.csv >> data/train.csv
head -n 1 data/manifest.csv > data/cal.csv
sed -n '10,11p' data/manifest.csv >> data/cal.csv
head -n 1 data/manifest.csv > data/test.csv
sed -n '12,15p' data/manifest.csv >> data/test.csv

mvpad bank build --manifest data/train.csv --config config.json --out banks
ls banks

mvpad score --manifest data/test.csv --banks banks --cal-manifest data/cal.csv \
    --config config.json --out scores.csv
cat scores.csv

mvpad eval --scores scores.csv --out metrics.json --roc-out roc.csv
cat metrics.json

mvpad localize --manifest data/test.csv --banks banks --config config.json --out loc
cat loc/*_localization.json

mvpad segment-eval --manifest data/cal.csv --out seg.json
python3 -c "import json; d=json.load(open('seg.json')); print('mean dice', d['mean_dice'])"

echo "done; artifacts left in $WORK"
