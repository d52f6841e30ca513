#!/usr/bin/env bash
# Runs every checked-in mutant against the tests that must catch it.
#
# Each mutants/NAME.patch is one small diff against crates/ or src/. Its
# header line `Killed-by: PATH...` names the test targets that must fail
# with the mutant applied: tests/X.rs (the root package's test X),
# crates/D/tests/X.rs (clare-D's test X) or crates/D/src/lib.rs (clare-D's
# unit tests). The runner copies the working tree (tracked and untracked,
# not ignored) to target/mutants/tree, checks that the union of the named
# targets passes there unmutated, then applies, tests and reverts each
# patch in turn, with one CARGO_TARGET_DIR shared by every build. It prints
# one verdict per mutant: killed (every named target failed), survived
# (one passed), did not apply, or did not build. Any verdict but killed
# makes it exit non-zero.
#
# Usage: mutants/run.sh   (from anywhere in the checkout; takes no flags)
set -u
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
started=$(date +%s)

# A fresh copy each run, so no patch of an interrupted run survives in it.
rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null -T - --ignore-failed-read -cf - 2>/dev/null) | tar -xmf - -C "$tree"
git -C "$tree" init -q

# The cargo arguments that run one named target.
cargo_args() {
    case $1 in
        tests/*.rs) echo "-p clare --test $(basename "$1" .rs)" ;;
        crates/*/tests/*.rs) echo "-p clare-$(echo "$1" | cut -d/ -f2) --test $(basename "$1" .rs)" ;;
        crates/*/src/lib.rs) echo "-p clare-$(echo "$1" | cut -d/ -f2) --lib" ;;
        *) return 1 ;;
    esac
}

# Builds the named targets, then prints each one that passes; returns 2
# when one does not build.
passing() {
    local target args
    for target in "$@"; do
        read -ra args < <(cargo_args "$target") || return 2
        (cd "$tree" && cargo test -q --no-run "${args[@]}" >"$work/build.log" 2>&1) || return 2
    done
    for target in "$@"; do
        read -ra args < <(cargo_args "$target")
        if (cd "$tree" && timeout 900 cargo test -q "${args[@]}" >"$work/test.log" 2>&1); then
            echo "$target"
        fi
    done
}

patches=("$root"/mutants/*.patch)
all=$(sed -n 's/^Killed-by: //p' "${patches[@]}" | tr ' ' '\n' | sort -u)
# shellcheck disable=SC2086
baseline=$(passing $all)
if [ "$baseline" != "$all" ]; then
    echo "the unmutated tree does not pass every named target:"
    comm -13 <(echo "$baseline") <(echo "$all")
    exit 1
fi

status=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    targets=$(sed -n 's/^Killed-by: //p' "$patch")
    if [ -z "$targets" ] || ! git -C "$tree" apply "$patch" 2>/dev/null; then
        verdict="did not apply"
    else
        # shellcheck disable=SC2086
        survivors=$(passing $targets)
        case $? in
            2) verdict="did not build" ;;
            *) verdict=${survivors:+survived ($(echo $survivors))} ;;
        esac
        verdict=${verdict:-killed}
        git -C "$tree" apply -R "$patch" || { echo "cannot revert $name"; exit 1; }
    fi
    printf '%-14s %s\n' "$verdict" "$name"
    [ "$verdict" = killed ] || status=1
done
echo "$(( $(date +%s) - started )) s for ${#patches[@]} mutants"
exit $status
