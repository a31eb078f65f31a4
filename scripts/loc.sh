#!/usr/bin/env bash
# Rust line counts per crate, split into non-test and test lines — the
# instrument behind the roadmap's "net negative line count" deliverable.
#
# Usage: scripts/loc.sh [path ...]
#
# Without arguments: one row per workspace crate (plus the root package and
# the benchmark package). With arguments: one row per path given (a file or
# a directory), e.g.
#     scripts/loc.sh crates/sparql-engine/src/eval.rs crates/sparql-engine/src/eval
#
# A line is a *test* line when its file sits under a `tests/` or `benches/`
# directory, or when it follows the file's first `#[cfg(test)]` (every unit
# test module in this workspace closes its file). Everything else — code,
# comments and blank lines alike — is a non-test line.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/target/*' -print0 2>/dev/null | sort -z |
        xargs -0 -r awk '
            FNR == 1 { in_test = (FILENAME ~ /(^|\/)(tests|benches)\//) }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            { if (in_test) test++; else code++ }
            END { printf "%d %d", code + 0, test + 0 }'
}

if [[ $# -gt 0 ]]; then
    targets=("$@")
else
    targets=(src examples tests crates/*/ crates/shims/*/ benchmark)
fi

printf '%-34s %9s %9s\n' "path" "non-test" "test"
total_code=0
total_test=0
for t in "${targets[@]}"; do
    [[ -e "$t" && "$t" != "crates/shims/" ]] || continue
    read -r code test <<<"$(count "$t")"
    [[ -n "${code:-}" ]] || continue
    printf '%-34s %9d %9d\n' "${t%/}" "$code" "$test"
    total_code=$((total_code + code))
    total_test=$((total_test + test))
done
printf '%-34s %9d %9d\n' "total" "$total_code" "$total_test"
