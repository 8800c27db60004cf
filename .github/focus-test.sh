#!/usr/bin/env bash
# focus-test.sh <go test flags and packages, including -run PATTERN>
#
# Runs `go test "$@"`, but first fails if any `|`-alternative of the -run
# pattern selects no test in the listed packages. `go test -run` passes
# silently when its regex matches nothing, so a test rename used to turn a
# race-focus or fuzz-seed step into a no-op without anyone noticing.
set -euo pipefail

pattern=""
pkgs=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    -run)
      pattern="${args[i + 1]}"
      i=$((i + 1))
      ;;
    -*) ;;
    *) pkgs+=("${args[i]}") ;;
  esac
done
if [[ -z "$pattern" || ${#pkgs[@]} -eq 0 ]]; then
  echo "focus-test: need -run PATTERN and at least one package" >&2
  exit 2
fi

IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
  # Captured, not piped into grep -q: an early grep exit would SIGPIPE the
  # lister and fail the pipeline under pipefail.
  listed="$(go test -list "$alt" "${pkgs[@]}")"
  if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
    echo "focus-test: -run alternative '$alt' selects no test in ${pkgs[*]}" >&2
    exit 1
  fi
done
exec go test "$@"
