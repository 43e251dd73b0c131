#!/usr/bin/env bash
# End-to-end smoke run of the command line, the REPL and the demos on the
# bundled documents; exits non-zero at the first failed check.
#
#     bash tools/smoke.sh
set -eo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

python -m ologism --help

# The front end's import loads no engine that some subcommand skips. Only
# ologism.* modules are checked: the stdlib's own imports differ by version.
python -s -c '
import sys, ologism.cli
engines = {"ologism." + name for name in ("syll", "oracle", "repl", "dot", "eqtheory", "deduce")}
loaded = sorted(engines & set(sys.modules))
sys.exit(f"import ologism.cli loaded {loaded}" if loaded else 0)'
python -m ologism check src/ologism/data/animals.olgm
printf '%s\n' 'load src/ologism/data/animals.olgm' 'add type F "a fish"' 'add A F V' quit \
  | python -m ologism repl | grep -F 'A(F,V)   "Every fish is a vertebrate"'
out=$(printf '%s\n' 'load src/ologism/data/animals.olgm' derived contradictions quit \
  | python -m ologism repl)
test "$(printf '%s\n' "$out" | grep -cF 'I(A,V)   "Some animal that is able to fly is a vertebrate"')" -eq 2
printf '%s\n' "$out" | grep -F 'consistent: no O(X,X) is derivable'

# A REPL session that adds a premiss, retracts it and adds it again prints
# the same for both adds, and lists under `derived` what a fresh load of the
# document it ends with lists. Each command's output is one awk record.
printf '%s\n' 'load src/ologism/data/animals.olgm' 'add A A V' 'retract A A V' 'add A A V' \
  "save $tmp/animals-edited.olgm" derived quit | python -m ologism repl > "$tmp/edited.txt"
printf '%s\n' "load $tmp/animals-edited.olgm" derived quit | python -m ologism repl > "$tmp/fresh.txt"
record() { awk -v n="$1" 'BEGIN { RS = "olgm> " } NR == n' "$2"; }
test "$(record 3 "$tmp/edited.txt")" = "$(record 5 "$tmp/edited.txt")"
record 7 "$tmp/edited.txt" | grep -F 'O(V,B)   "Some vertebrate is not a bird"'
test "$(record 7 "$tmp/edited.txt")" = "$(record 3 "$tmp/fresh.txt")"

# A CRLF copy reads as the original.
python -m ologism check src/ologism/data/animals.olgm > "$tmp/animals-lf.txt"
sed 's/$/\r/' src/ologism/data/animals.olgm > "$tmp/animals-crlf.olgm"
python -m ologism check "$tmp/animals-crlf.olgm" | diff "$tmp/animals-lf.txt" -

# So does a copy that starts with a UTF-8 byte-order mark, for check and the REPL.
{ printf '\xef\xbb\xbf'; cat src/ologism/data/animals.olgm; } > "$tmp/animals-bom.olgm"
python -m ologism check "$tmp/animals-bom.olgm" | diff "$tmp/animals-lf.txt" -
printf '%s\n' "load $tmp/animals-bom.olgm" quit | python -m ologism repl \
  | grep -F "loaded 'animals': 4 types, 5 premisses"

# A file that is not UTF-8 is an io_error (exit 3) for check, and the REPL
# says it cannot read it, without a traceback either way.
printf 'ologism "x" {\n  type X "a \xff"\n}\n' > "$tmp/not-utf8.olgm"
status=0
python -m ologism check "$tmp/not-utf8.olgm" 2> "$tmp/not-utf8.err" || status=$?
test "$status" -eq 3
if grep -F Traceback "$tmp/not-utf8.err"; then exit 1; fi
printf '%s\n' "load $tmp/not-utf8.olgm" quit | python -m ologism repl \
  | grep -F "error: cannot read $tmp/not-utf8.olgm: "

# A one-declaration-per-line document with a duplicate type goes from the
# line reader to the token parser: check prints its positioned diagnostic and
# exits 2, without a traceback.
printf 'ologism "x" {\n  type X "an x"\n  type X "an x"\n}\n' > "$tmp/duplicate-type.olgm"
status=0
python -m ologism check "$tmp/duplicate-type.olgm" > "$tmp/duplicate-type.out" 2>&1 || status=$?
test "$status" -eq 2
grep -F "3:8: error: DuplicateType: type 'X' declared twice" "$tmp/duplicate-type.out"
if grep -F Traceback "$tmp/duplicate-type.out"; then exit 1; fi

# check and the REPL print a derivation through one renderer: check's tree
# for O(S,S), one level in, is the REPL's `why O S S`, line for line.
printf 'ologism "square" {\n  type S "a square"\n  type P "a polygon"\n  A S P\n  O S P\n}\n' > "$tmp/square.olgm"
status=0
python -m ologism check "$tmp/square.olgm" > "$tmp/square-check.txt" || status=$?
test "$status" -eq 1
sed -n '/^CONTRADICTION O(S,S)/,/^CONTRADICTION/s/^  //p' "$tmp/square-check.txt" > "$tmp/square-tree.txt"
printf '%s\n' "load $tmp/square.olgm" 'why O S S' quit | python -m ologism repl \
  | sed -n 's/^olgm> O(S,S)/O(S,S)/; /^O(S,S)/,/^olgm>/p' | sed '$d' > "$tmp/square-why.txt"
test "$(head -n 1 "$tmp/square-why.txt")" = 'O(S,S)   (R8)'
diff "$tmp/square-tree.txt" "$tmp/square-why.txt"

for demo in demos/*.py; do
  echo "== $demo"
  python "$demo" > /dev/null
done
