#!/usr/bin/env bash
# Checks that every relative markdown link in README.md and docs/
# resolves to an existing file (anchors are stripped; external
# http(s)/mailto links are skipped — no network access), and that
# every backticked repo path (`src/...`, `tests/...`, `bench/...`,
# `benchmark/...`, `examples/...`, `ci/...`, `docs/...`) in README.md,
# docs/*.md and PAPERS.md names a file or directory that exists.
# `{a,b}` globs are skipped, `*` globs must match something, and a
# `:line` suffix is ignored. Run from the repo root; CI and the
# `markdown_links` ctest share it.
set -euo pipefail

cd "$(dirname "$0")/.."

FILES=(README.md)
while IFS= read -r f; do FILES+=("$f"); done < <(find docs -name '*.md' 2>/dev/null | sort)

errors=0
for file in "${FILES[@]}"; do
  # Extract the (target) of every [text](target) markdown link.
  # grep exits 1 on zero matches — a file with no links is fine.
  links=$(grep -oE '\]\(([^)]+)\)' "$file" | sed -E 's/^\]\((.*)\)$/\1/' || true)
  while IFS= read -r link; do
    [ -z "$link" ] && continue
    case "$link" in
      http://*|https://*|mailto:*) continue ;;  # external: not fetched
      '#'*) continue ;;                         # same-file anchor
    esac
    target="${link%%#*}"                        # strip anchor
    # Relative to the linking file's directory.
    base="$(dirname "$file")"
    if [ ! -e "$base/$target" ] && [ ! -e "$target" ]; then
      echo "BROKEN LINK: $file -> $link" >&2
      errors=$((errors + 1))
    fi
  done <<< "$links"
done

PATH_FILES=("${FILES[@]}" PAPERS.md)
for file in "${PATH_FILES[@]}"; do
  [ -f "$file" ] || continue
  # Inline code spans may wrap across lines, so drop fenced blocks and
  # join the rest before pairing backticks.
  paths=$(awk '/^[[:space:]]*```/ { fenced = !fenced; next } !fenced' "$file" |
          tr '\n' ' ' | grep -oE '`[^`]+`' | tr -d '`' |
          grep -E '^(src|tests|bench|benchmark|examples|ci|docs)/' || true)
  while IFS= read -r path; do
    [ -z "$path" ] && continue
    path="${path%% *}"                          # first word only
    path="${path%%:*}"                          # strip :line suffix
    case "$path" in *'{'*) continue ;; esac     # {a,b} glob
    if [[ "$path" == *'*'* ]]; then
      compgen -G "$path" > /dev/null && continue
    elif [ -e "$path" ]; then
      continue
    fi
    echo "MISSING PATH: $file -> \`$path\`" >&2
    errors=$((errors + 1))
  done <<< "$paths"
done

if [ "$errors" -gt 0 ]; then
  echo "$errors broken markdown link(s) or path(s)" >&2
  exit 1
fi
echo "markdown links and paths OK (${#PATH_FILES[@]} file(s) checked)"
