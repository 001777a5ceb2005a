#!/usr/bin/env bash
# Proves the working tree byte-identical to an earlier revision end to end.
#
# Extracts <rev> with `git archive`, builds `dexa` and every example there
# and in the working tree (same build type, separate build directories),
# runs the same commands with both builds, and diffs what they print and
# write:
#   - stdout and exit code of `tables`, `annotate <module>`, `compare`,
#     `discover`, `compose`, `repair`, `study` and `export-registry` (plus
#     the exported registry file), and of every example;
#   - the `--journal` directories (segments and state snapshot) of a plain
#     durable run, a `--shards=3` run, a `--crash after m010` run followed
#     by `resume`, and a `--kb-image` run (plus the compiled image itself);
#   - the `--trace-out` file and the `stable` section of `--metrics-out`
#     (the `volatile` section holds wall-clock phase times and may differ).
#
# Usage: tools/check_byte_identity.sh <rev> [work-dir]
#   work-dir  where both builds and both output trees go (default: a fresh
#             temporary directory). Passing the same directory again
#             reuses its builds, so a second check only rebuilds what
#             changed.
#
# Exit status: 0 when every output is identical, 1 on any difference (a
# unified diff is printed), 2 on a usage or build error.

set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  sed -n '2,/^$/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

cd "$(dirname "$0")/.."
REPO="$(pwd)"
REV="$1"
WORK="${2:-$(mktemp -d "${TMPDIR:-/tmp}/dexa-byte-identity.XXXXXX")}"
mkdir -p "$WORK"
WORK="$(cd "$WORK" && pwd)"
BUILD_TYPE=RelWithDebInfo

if ! git -C "$REPO" rev-parse --verify --quiet "$REV^{commit}" >/dev/null; then
  echo "check_byte_identity: unknown revision '$REV'" >&2
  exit 2
fi

# The example targets a source tree declares (dexa_add_example(<name>)).
examples_of() {
  sed -n 's/^dexa_add_example(\([A-Za-z0-9_]*\))$/\1/p' \
    "$1/examples/CMakeLists.txt"
}

# build <source-dir> <build-dir>: configures and builds dexa + the examples.
build() {
  local src="$1" out="$2"
  local -a targets
  mapfile -t targets < <(examples_of "$src")
  echo "== building $src -> $out" >&2
  if ! { cmake -S "$src" -B "$out" -DCMAKE_BUILD_TYPE="$BUILD_TYPE" &&
         cmake --build "$out" --target dexa "${targets[@]}" \
           -j"$(nproc)"; } >"$out.log" 2>&1; then
    tail -n 40 "$out.log" >&2
    echo "check_byte_identity: build of $src failed (log: $out.log)" >&2
    exit 2
  fi
}

# run <name> <command...>: runs the command in the current directory,
# keeping its stdout and exit status as <name>.stdout / <name>.exit.
run() {
  local name="$1"
  shift
  local status=0
  "$@" >"$name.stdout" 2>"$name.stderr" || status=$?
  echo "$status" >"$name.exit"
}

# suite <build-dir> <source-dir> <out-dir>: every command, outputs in out-dir.
suite() {
  local build_dir="$1" src="$2" out="$3"
  local dexa="$build_dir/tools/dexa"
  rm -rf "$out"
  mkdir -p "$out"
  (
    cd "$out"
    run tables "$dexa" tables
    run annotate "$dexa" annotate EBI_GetBiologicalSequence
    run compare "$dexa" compare EBI_GetUniprotRecord DDBJ_GetUniprotRecord
    run discover "$dexa" discover UniprotAccession ProteinSequence
    run compose "$dexa" compose UniprotAccession AlignmentReport 2
    run repair "$dexa" repair
    run study "$dexa" study
    run export-registry "$dexa" export-registry registry.dexa

    run traced "$dexa" annotate --trace-out=trace.json \
      --metrics-out=metrics.json
    if [[ -f metrics.json ]]; then
      python3 -c 'import json, sys
print(json.dumps(json.load(open(sys.argv[1]))["stable"], indent=1,
                 sort_keys=True))' metrics.json >metrics.stable.json
      rm metrics.json
    fi

    run journal-plain "$dexa" annotate --journal journal-plain
    run journal-shards "$dexa" annotate --journal journal-shards --shards=3
    run journal-crash "$dexa" annotate --journal journal-crash \
      --crash after m010
    run journal-resume "$dexa" resume journal-crash
    run compile-kb "$dexa" compile-kb kb.img
    run journal-kb-image "$dexa" --kb-image=kb.img annotate \
      --journal journal-kb-image

    local example
    while read -r example; do
      run "example-$example" "$build_dir/examples/$example"
    done < <(examples_of "$src")
    # stderr carries diagnostics only; it is kept for reading, not compared.
    mkdir -p ../stderr-"$(basename "$out")"
    mv ./*.stderr ../stderr-"$(basename "$out")"/
  )
}

BASE_SRC="$WORK/base-src"
rm -rf "$BASE_SRC"
mkdir -p "$BASE_SRC"
git -C "$REPO" archive "$REV" | tar -x -C "$BASE_SRC"

build "$BASE_SRC" "$WORK/base-build"
build "$REPO" "$WORK/head-build"

suite "$WORK/base-build" "$BASE_SRC" "$WORK/base"
suite "$WORK/head-build" "$REPO" "$WORK/head"

if diff -ru "$WORK/base" "$WORK/head"; then
  echo "byte-identical: $REV and the working tree agree on every output" \
    "($(find "$WORK/head" -type f | wc -l) files; $WORK)"
  exit 0
fi
echo "check_byte_identity: outputs differ between $REV and the working" \
  "tree (both trees in $WORK)" >&2
exit 1
