#!/usr/bin/env bash
# Public items nobody else names. Prints one `FILE:LINE: pub KIND NAME` line
# per `pub` fn/const/static/struct/enum/trait/type in the product code of
# crates/*/src and src/ whose name no other .rs file under crates/, src/,
# tests/, examples/ or benchmark/src names, and exits 1 if it printed any.
#
#   scripts/unused_pub.sh
#
# An item is the product code's (scripts/product_lines.sh), so a `pub` item
# inside a `#[cfg(test)]` block is exempt. Defining an item of the same name
# (`fn NAME`, `struct NAME`, …) is not naming it. Two kinds are dropped:
# - names listed in scripts/unused_pub.allow (one per line, with its reason);
# - a struct, enum, trait or type named on a `pub fn` or `pub` field line of
#   its own file: a caller reaches it through that signature.
# An orphan gets a caller, or its visibility drops to the narrowest that
# compiles (private, `pub(crate)`, `#[cfg(test)]`), or it is deleted.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/product_lines.sh

allow=scripts/unused_pub.allow
roots=(crates src tests examples benchmark/src)

# FILE:LINE:TEXT for every product line of the files that define items.
product=$(find crates/*/src src -name '*.rs' | sort | while read -r f; do product_lines "$f"; done)

# "FILE WORD" for every word a file names, with item definitions' own names
# struck out. Comments count: a doc example in another file is a caller.
named=$(find "${roots[@]}" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 awk '
    {
        line = $0
        gsub(/(^|[^A-Za-z0-9_])const[[:space:]]+fn[[:space:]]/, " fn ", line)
        gsub(/(^|[^A-Za-z0-9_])(fn|struct|enum|trait|type|static|const)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*/, " ", line)
        n = split(line, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++)
            if (words[i] ~ /^[A-Za-z_]/ && !seen[FILENAME, words[i]]++) print FILENAME, words[i]
    }')

orphans=$(awk '
    FILENAME == ARGV[1] {
        if ($0 !~ /^[[:space:]]*(#|$)/) allowed[$1] = 1
        next
    }
    FILENAME == ARGV[2] { files[$2]++; names[$2, $1] = 1; next }
    {
        file = $0; sub(/:.*/, "", file)
        rest = substr($0, length(file) + 2)
        line = rest; sub(/:.*/, "", line)
        text = substr(rest, length(line) + 2)
        if (text ~ /^[[:space:]]*pub (((const|unsafe|async) )*fn |[a-z_][a-z0-9_]*[[:space:]]*:)/)
            signatures[file] = signatures[file] "\n" text
        if (match(text, /^[[:space:]]*pub ((const|unsafe|async) )*(fn|const|static|struct|enum|trait|type) +(mut +)?[A-Za-z_][A-Za-z0-9_]*/)) {
            item = substr(text, RSTART, RLENGTH)
            sub(/^[[:space:]]*pub +((const|unsafe|async) +)*fn /, "fn ", item)
            sub(/^[[:space:]]*pub +/, "", item)
            sub(/ mut /, " ", item)
            split(item, kw, / +/)
            k++; kind[k] = kw[1]; name[k] = kw[2]; where[k] = file ":" line; owner[k] = file
        }
    }
    END {
        for (i = 1; i <= k; i++) {
            n = name[i]
            if (n in allowed) continue
            if (files[n] > ((n, owner[i]) in names)) continue
            if (kind[i] ~ /^(struct|enum|trait|type)$/ && signatures[owner[i]] ~ ("(^|[^A-Za-z0-9_])" n "([^A-Za-z0-9_]|$)"))
                continue
            print where[i] ": pub " kind[i] " " n
        }
    }' "$allow" <(printf '%s\n' "$named") <(printf '%s\n' "$product"))

if [[ -n "$orphans" ]]; then
    printf '%s\n' "$orphans"
    echo "unused_pub: the public items above have no caller outside their own file;" \
        "call them, narrow them, gate them behind #[cfg(test)], delete them, or list them in $allow with a reason" >&2
    exit 1
fi
