#!/usr/bin/env bash
# Project lint: source hygiene rules the compiler does not enforce.
#
#   1. No Obj.magic anywhere in lib/ — the simulator has no excuse for
#      defeating the type system.
#   2. No stray console output (Printf.printf / print_endline /
#      print_string / prerr_*) in lib/ .ml files: libraries report
#      through Fmt formatters or the obs layer, never straight to stdout.
#      (bin/ and test/ may print; Printf.sprintf/Fmt are fine anywhere.)
#   3. Retired: partial and unsafe accessors are pmlint's
#      partial-accessor rule (rule 5), lib-wide and AST-precise.
#   4. Every module in lib/ ships a .mli — the interface is the contract
#      the sanitizers and tests are written against.
#   5. pmlint (bin/pmlint.exe): the AST-level analyzer — lib-wide
#      partial accessors (List.hd / List.tl / Option.get / unsafe_get /
#      unsafe_set) and the protocol rules greps cannot express
#      (flush-before-commit, suspend-in-critical-section).
#      Only reasoned inline allow markers silence a finding.
#   6. Every level-0 choice is lib/core/policy.ml's: outside it and
#      lib/core/config.ml (which defines the variant), no lib/ .ml names
#      Config.l0_strategy or matches on its constructors. The type cannot
#      enforce this, because benchmark/ constructs the variant itself.
#   7. Every lib/ module has a caller: some .ml/.mli of lib/, bin/,
#      bench/, benchmark/ or examples/ other than the module's own names
#      it. A module that only test/ reaches is code the store never runs,
#      and its tests check nothing the store does.
#   8. Every val in a lib/ .mli is named by some .ml/.mli of lib/, bin/,
#      bench/, benchmark/, examples/ or test/ other than its own module's
#      two files. An export only its own module names is internal and
#      belongs out of the interface. Like rule 7 it matches by name, so
#      it is a floor, not a proof: a common name passes wherever it
#      appears.
#
# Exits non-zero with a file:line listing on any violation.

set -u
cd "$(dirname "$0")/.."

failmark=$(mktemp)
trap 'rm -f "$failmark"' EXIT
: > "$failmark"
complain() { # title, then the offending lines on stdin
  # (runs in a pipeline subshell, so failure is signalled via the file)
  local lines
  lines=$(cat)
  if [ -n "$lines" ]; then
    echo "lint: $1" >&2
    echo "$lines" | sed 's/^/  /' >&2
    echo 1 > "$failmark"
  fi
}

# 1. Obj.magic in lib/
grep -rn 'Obj\.magic' lib --include='*.ml' --include='*.mli' \
  | complain "Obj.magic is forbidden in lib/"

# 2. console output in lib/ .ml (sprintf excused). Complete (* ... *)
#    spans are stripped before the final match, so a mid-line comment
#    mentioning print_endline no longer trips the rule — and a real call
#    sharing a line with a comment is no longer excused by it.
grep -rn 'Printf\.printf\|print_endline\|print_string\|prerr_endline\|prerr_string' \
    lib --include='*.ml' \
  | sed -E ':a; s/\(\*([^*]|\*+[^*)])*\*+\)//; ta' \
  | grep 'Printf\.printf\|print_endline\|print_string\|prerr_endline\|prerr_string' \
  | grep -v 'Printf\.sprintf' \
  | complain "direct console output is forbidden in lib/ (use Fmt/obs)"

# 4. every lib/ module has an interface
missing=""
for ml in lib/*/*.ml; do
  mli="${ml}i"
  [ -f "$mli" ] || missing="$missing$ml (no $(basename "$mli"))
"
done
printf '%s' "$missing" | complain "every lib/ module needs a .mli"

# 5. pmlint: lib-wide partial accessors and the protocol rules —
#    flush-before-commit and suspend-in-critical-section.
pmlint_out="$(dune exec bin/pmlint.exe -- lib 2>&1)" || {
  printf '%s\n' "$pmlint_out" \
    | complain "pmlint findings (see 'dune exec bin/pmlint.exe -- lib')"
}

# 6. strategy matches belong to the policy module
grep -rn 'l0_strategy\|Config\.\(Cost_based\|Conventional\|Matrix\)\b' lib --include='*.ml' \
  | grep -v '^lib/core/config\.ml:\|^lib/core/policy\.ml:' \
  | complain "only lib/core/policy.ml may match on Config.l0_strategy"

# 7. every lib/ module is named outside its own files and test/
uncalled=""
for ml in lib/*/*.ml; do
  name=$(basename "$ml" .ml | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  grep -rlw "$name" lib bin bench benchmark examples --include='*.ml' --include='*.mli' \
    | grep -qvx "${ml}\|${ml}i" \
    || uncalled="$uncalled$ml (nothing outside test/ names $name)
"
done
printf '%s' "$uncalled" | complain "every lib/ module needs a caller outside test/"

# 8. every exported val is named outside its own module. One pass: the
#    (file, word) pairs of the tree, then each .mli val checked against
#    them.
{
  grep -oE "^[[:space:]]*val [a-z_][A-Za-z0-9_']*" lib/*/*.mli \
    | sed -E 's/:[[:space:]]*val /:/; s/^/V:/'
  grep -roE "[A-Za-z_][A-Za-z0-9_']*" lib bin bench benchmark examples test \
      --include='*.ml' --include='*.mli' \
    | sort -u | sed 's/^/W:/'
} | awk -F: '
  $1 == "W" { files[$3]++; has[$2 ":" $3] = 1; next }
  { vals[$2 ":" $3] = 1 }
  END {
    for (k in vals) {
      split(k, p, ":"); mli = p[1]; v = p[2]; ml = substr(mli, 1, length(mli) - 1)
      if (files[v] - has[ml ":" v] - has[mli ":" v] <= 0)
        print mli ": val " v " (named only by its own module)"
    }
  }' | sort | complain "every exported val needs a user outside its own module"

if [ -s "$failmark" ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: clean"
