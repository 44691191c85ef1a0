#!/usr/bin/env bash
# Shows that the clippy lints denied at the workspace's no-panic crate
# roots and wire decoders, and the raw-atomic ban (clippy.toml at the
# repository root), fire: clippy must reject src/lib.rs with each named
# lint, and must accept the same file under --tests, where test code is
# exempt.
set -uo pipefail
cd "$(dirname "$0")"

if out=$(cargo clippy --offline --message-format=json 2>/dev/null); then
    echo "error: clippy accepted the seeded fixture" >&2
    exit 1
fi
status=0
for lint in unwrap_used panic arithmetic_side_effects cast_possible_truncation \
    indexing_slicing disallowed_types; do
    if grep -q "\"code\":\"clippy::$lint\"" <<<"$out"; then
        echo "ok: clippy::$lint fires"
    else
        echo "error: clippy::$lint did not fire on the fixture" >&2
        status=1
    fi
done

if cargo clippy --offline --tests -- -D warnings; then
    echo "ok: test code stays exempt"
else
    echo "error: clippy rejected the fixture's test build" >&2
    status=1
fi
exit $status
