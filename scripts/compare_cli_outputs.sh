#!/usr/bin/env bash
# Run the CLI experiments from two source trees and cmp every output file
# and every stdout, exit code included, and the protocol digest lines of
# scripts/protocol_digest.py (outcomes the CLI never requests).
#
# Usage: scripts/compare_cli_outputs.sh BASE_DIR [HEAD_DIR]
#
# BASE_DIR and HEAD_DIR (default: the current directory) are checkouts
# whose src/ holds the triact package.  Exits 1 if any output differs.
# A change that moves digits on purpose edits this list and says so.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "${2:-.}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# One experiment per line: a name, then the CLI arguments.
experiments=(
    "census census --n-states 5000 --out census.csv"
    "census_s7 census --n-states 5000 --seed 7 --out census_s7.csv"
    "census_t2 census --n-states 5000 --threads 2 --out census_t2.csv"
    "census_json census --n-states 2000 --format json --out census.json"
    "census_maxseed census --n-states 4100 --seed 18446744073709551615 --out census_maxseed.csv"
    "sweep_ad sweep --channel ad --n-states 50 --steps 300 --format json --out sweep_ad.json"
    "sweep_pd sweep --channel pd --n-states 50 --steps 300 --format json --out sweep_pd.json"
    "sweep_pdv sweep --channel pd-verbatim --n-states 50 --steps 300 --format json --out sweep_pdv.json"
    "sweep_d sweep --channel d --n-states 50 --steps 300 --format json --out sweep_d.json"
    "sweep_ad1000 sweep --channel ad --n-states 100 --steps 1000 --format json --out sweep_ad1000.json"
    "sweep_pdv1000 sweep --channel pd-verbatim --n-states 100 --steps 1000 --format json --out sweep_pdv1000.json"
    "sweep_d1000 sweep --channel d --n-states 100 --steps 1000 --format json --out sweep_d1000.json"
    "sweep_pd1000 sweep --channel pd --n-states 100 --steps 1000 --format json --out sweep_pd1000.json"
    "sweep_t2 sweep --channel ad --n-states 4100 --steps 20 --threads 2 --out sweep_t2.csv"
    "sweep_d_t2 sweep --channel d --n-states 2000 --steps 100 --threads 2 --out sweep_d_t2.csv"
    "verify verify --out verify.json"
    "verify_k verify --seed 3 --k 7.5 --p 0.35 --out verify_k.json"
    "verify_p1 verify --p 1 --out verify_p1.json"
    "verify_p0 verify --p 0 --out verify_p0.json"
    "iso_csv iso-curve --out iso.csv"
    "iso_json iso-curve --format json --out iso.json"
    "extension extension --k 4"
)

for side in base head; do
    mkdir "$work/$side"
    src=${!side}/src
    for line in "${experiments[@]}"; do
        read -r name args <<< "$line"
        # shellcheck disable=SC2086
        (cd "$work/$side" && { PYTHONPATH="$src" python -m triact.cli $args \
            && echo "exit 0" || echo "exit $?"; } > "$name.stdout")
    done
    # HEAD_DIR's digest script (public API only) against each side's src/
    PYTHONPATH="$src" python "$head/scripts/protocol_digest.py" \
        > "$work/$side/protocol_digest.stdout"
done

status=0
diff <(ls "$work/base") <(ls "$work/head") || status=1
for f in "$work"/base/*; do
    name=$(basename "$f")
    if cmp "$f" "$work/head/$name"; then
        echo "same: $name"
    else
        status=1
    fi
done
exit "$status"
