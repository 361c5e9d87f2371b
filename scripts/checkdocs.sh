#!/usr/bin/env bash
# checkdocs.sh — the docs gate wired into CI: every package (the root
# package and every internal/*) must carry a proper "Package <name> ..."
# comment, the top-level docs must exist, and every *.md file a Go comment
# cites must exist. Run it locally before sending a PR; CI runs it
# verbatim.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

has_pkg_comment() { # has_pkg_comment PKGNAME FILE...
    local pkg="$1"
    shift
    local f
    for f in "$@"; do
        [[ "$f" == *_test.go ]] && continue
        if grep -q "^// Package $pkg " "$f"; then
            return 0
        fi
    done
    return 1
}

if ! has_pkg_comment repro ./*.go; then
    echo "missing package comment: repro (root)"
    fail=1
fi

for dir in internal/*/; do
    pkg="$(basename "$dir")"
    if ! has_pkg_comment "$pkg" "$dir"*.go; then
        echo "missing package comment: $pkg"
        fail=1
    fi
done

for doc in README.md ARCHITECTURE.md; do
    if [[ ! -f "$doc" ]]; then
        echo "missing $doc"
        fail=1
    fi
done

# Every *.md file a Go comment cites must exist, next to the citing file or
# at the repo root, so the docs index cannot go stale. Reports the tools
# generate (listed in .gitignore, e.g. LOAD_REPORT.md) are exempt.
while IFS= read -r line; do
    file="${line%%:*}"
    for doc in $(grep -oE '[A-Za-z0-9_./-]+\.md\b' <<<"${line#*//}"); do
        if [[ ! -f "$(dirname "$file")/$doc" && ! -f "$doc" ]] && ! grep -qxF "$doc" .gitignore; then
            echo "$file cites missing $doc"
            fail=1
        fi
    done
done < <(grep -rHE --include='*.go' --exclude-dir=.git --exclude-dir=.bench_build '//.*\.md\b' .)

if [[ "$fail" != 0 ]]; then
    echo "checkdocs.sh: documentation gate failed" >&2
    exit 1
fi
echo "docs ok: package comments present, README.md and ARCHITECTURE.md exist, cited *.md files exist"
