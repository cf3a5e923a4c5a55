#!/usr/bin/env bash
# Builds the benchmark from source, writes the seeded inputs and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <chip_fp32|region_int8|serve_dfm> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, the generated
# inputs and the span dump of a traced run.
set -euo pipefail

seed=""
seconds=""
args=("$@")
while [ $# -gt 0 ]; do
	case "$1" in
	--seed) seed="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	*) shift ;;
	esac
done
if [ -z "$seed" ] || [ -z "$seconds" ]; then
	echo "run.sh: --seed and --seconds are required" >&2
	exit 2
fi

# The toolchain's default install directory, for shells whose PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/home" "$build/bin"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$build/bin/perfbench" . >&2

inputs="$build/inputs"
rm -rf "$inputs"
"$build/bin/perfbench" gen -seed "$seed" -seconds "$seconds" -out "$inputs" >&2
exec "$build/bin/perfbench" "${args[@]}" --inputs "$inputs" --trace-out "$build/spans.json"
