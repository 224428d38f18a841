#!/usr/bin/env bash
# Apply each committed mutant to a copy of the working tree, run every
# check the mutants name against it, and print the kill matrix.
#
#   make mutants    (or: bash test/mutants/run.sh)
#
# A mutant is test/mutants/NAME.patch: a header, then a unified diff
# against the repository root as `git diff` prints it.  The header is
#
#   Mutant: what the patch breaks
#   Check: a shell command, run from the copy's root after the build
#
# with one `Check:` line per check that must fail on this mutant.  A
# check kills a mutant when it exits non-zero or runs out of time.  Each
# mutant meets every check of every mutant, so the matrix also shows the
# checks that do not see it; each check must pass on the unmutated copy.
#
# The copy leaves out _build and .git, and the mutants are applied and
# reverted in turn within it, so each one builds incrementally.  Exits 1
# when a check fails on the unmutated copy, a patch no longer applies or
# builds, or a mutant survives every check it names.
set -u
root=$(cd "$(dirname "$0")/../.." && pwd)
dir=$root/test/mutants
limit=600
patches=("$dir"/*.patch)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
tar -C "$root" --exclude=./_build --exclude=./.git --exclude=./.bench_build \
  --exclude=./.bench_run -cf - . | tar -C "$tmp" -xf -
cd "$tmp" || exit 1

# the executables the checks run
targets=(./bin/cgra_tool.exe)
for t in test/test_*.ml; do targets+=("./${t%.ml}.exe"); done
build() { dune build "${targets[@]}" >build.log 2>&1; }

passes() { timeout "$limit" bash -c "$1" >/dev/null 2>&1; }

# every check, in the order the mutants first name them
checks=()
declare -A named
for p in "${patches[@]}"; do
  while IFS= read -r c; do
    [ -n "${named[$c]:-}" ] || checks+=("$c")
    named[$c]=1
    named[$(basename "$p" .patch)/$c]=1
  done < <(sed -n 's/^Check: //p' "$p")
done

if ! build; then
  echo "the unmutated copy does not build:"
  cat build.log
  exit 1
fi
status=0
for c in "${checks[@]}"; do
  if ! passes "$c"; then
    echo "fails on the unmutated copy: $c"
    status=1
  fi
done
[ $status -eq 0 ] || exit 1

echo "mutants:"
declare -A cell
i=0
for p in "${patches[@]}"; do
  i=$((i + 1))
  name=$(basename "$p" .patch)
  echo "  M$i $name: $(sed -n 's/^Mutant: //p' "$p")"
  if ! git apply --check "$p" 2>/dev/null; then
    echo "     ERROR: the patch no longer applies"
    status=1
    continue
  fi
  git apply "$p"
  if ! build; then
    echo "     ERROR: the mutant does not build"
    status=1
    git apply -R "$p"
    continue
  fi
  killed=0
  for c in "${checks[@]}"; do
    if passes "$c"; then
      cell[$i/$c]=.
    else
      cell[$i/$c]=K
      [ -n "${named[$name/$c]:-}" ] && killed=$((killed + 1))
    fi
  done
  if [ $killed -eq 0 ]; then
    echo "     SURVIVES every check it names"
    status=1
  fi
  git apply -R "$p"
done

echo
echo "kill matrix (K killed, . survived, ? not run; * a check the mutant names):"
for j in $(seq 1 $i); do printf ' M%-3s' "$j"; done
echo ' check'
for c in "${checks[@]}"; do
  j=0
  for p in "${patches[@]}"; do
    j=$((j + 1))
    mark=' '
    [ -n "${named[$(basename "$p" .patch)/$c]:-}" ] && mark='*'
    printf ' %s%s  ' "${cell[$j/$c]:-?}" "$mark"
  done
  echo " $c"
done
exit $status
