#!/usr/bin/env bash
# Product lines of Rust source files: every line outside `#[cfg(test)]`
# items, without comment-only lines.
#
#   scripts/product_lines.sh FILE...   # print the number of non-blank product lines
#   source scripts/product_lines.sh    # define `product_lines FILE`, which prints
#                                      # each product line (blank ones too) as
#                                      # FILE:LINE:TEXT, for grep gates
#
# A `#[cfg(test)]` item ends where its braces close, or at its `;` if it
# opens none (a `mod tests;` declaration). A file that is test-only by
# where it is declared (`#[cfg(test)] mod fixture;`) still counts in full.

product_lines() {
    awk -v f="$1" '
        function count(s, c) { return gsub(c, "", s) }
        skip {
            o = count($0, "{"); c = count($0, "}"); depth += o - c
            if (o > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && index($0, ";") && depth <= 0)) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        { print f ":" FNR ":" $0 }' "$1" \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'
}

if [[ "${BASH_SOURCE[0]}" == "$0" ]]; then
    set -euo pipefail
    if [[ $# -eq 0 ]]; then
        echo "usage: $0 FILE..." >&2
        exit 2
    fi
    for f in "$@"; do
        product_lines "$f"
    done | { grep -cvE '^[^:]+:[0-9]+:[[:space:]]*$' || true; }
fi
