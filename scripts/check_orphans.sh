#!/bin/sh
# Orphan-package check: every package under internal/ must be imported,
# directly or transitively, by production code — the root facade, a
# command, or an example. A package only tests reach is dead code and
# fails the check, unless it is a test-only helper named in ALLOW below.
#
# Used by `make lint` and the CI lint job. Needs only go + POSIX sh.
set -eu

GO=${GO:-go}
ALLOW='repro/internal/lint/linttest'

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

$GO list ./internal/... | sort >"$WORK/internal"
$GO list -deps . ./cmd/... ./examples/... | sort >"$WORK/used"
printf '%s\n' $ALLOW | sort >"$WORK/allow"
comm -23 "$WORK/internal" "$WORK/used" | comm -23 - "$WORK/allow" >"$WORK/orphans"

if [ -s "$WORK/orphans" ]; then
	echo "internal packages no production code imports (delete them, or allow-list a test-only helper in scripts/check_orphans.sh):" >&2
	cat "$WORK/orphans" >&2
	exit 1
fi
