#!/usr/bin/env bash
# Stable rustdoc passes a ```compile_fail,E0xxx doctest on any compile
# error: it does not check the code. This script runs the doctests of
# every crate that has such a snippet and requires the compiler to
# refuse each snippet with exactly the code its fence names, so a
# snippet that broke some other way (a renamed import, a moved type)
# fails here. The compiler locates each error at the snippet's own
# lines in the source file, which is how an error is tied to a fence
# (rustdoc reports them one line low, so the closing fence's line
# counts as the snippet's).
set -uo pipefail
cd "$(dirname "$0")/.."

fences=$(grep -rnoE --include='*.rs' '```compile_fail,E[0-9]{4}' crates | sort -t: -k1,1 -k2,2n)
if [ -z "$fences" ]; then
    echo "error: found no compile_fail doctest with an error code" >&2
    exit 1
fi

status=0
errors=""
packages=$(cut -d: -f1 <<<"$fences" | sed 's|/src/.*||' | sort -u |
    while read -r dir; do sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1; done)
for pkg in $packages; do
    out=$(cargo test -q --offline -p "$pkg" --doc -- --nocapture --test-threads=1 2>&1 </dev/null)
    if ! grep -q '^test result: ok' <<<"$out"; then
        echo "$out" >&2
        echo "error: the doctests of $pkg failed" >&2
        status=1
    fi
    # file:line:code of each coded error, at its primary location (a
    # progress dot may precede the error line).
    errors+=$(awk 'match($0, /error\[E[0-9]+\]/) { code = substr($0, RSTART + 6, RLENGTH - 7) }
        /^ *--> / && code { split($2, at, ":"); print at[1] ":" at[2] ":" code; code = "" }' <<<"$out")
    errors+=$'\n'
done

while IFS=: read -r file line fence; do
    code=${fence#*compile_fail,}
    end=$(awk -v start="$line" 'NR > start && /```/ { print NR; exit }' "$file")
    got=$(awk -F: -v f="$file" -v start="$line" -v end="$end" \
        '$1 == f && $2 > start && $2 <= end { print $3 }' <<<"$errors" | sort -u | paste -sd, -)
    if [ "$got" = "$code" ]; then
        echo "ok: $file:$line is refused with $code"
    else
        echo "error: $file:$line should be refused with $code, got '${got:-no coded error}'" >&2
        status=1
    fi
done <<<"$fences"
exit $status
