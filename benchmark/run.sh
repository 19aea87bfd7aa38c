#!/usr/bin/env bash
# The benchmark driver's entry point, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source into .bench_build/, keeps every cache
# and temporary file of the build inside the checkout, and then runs the
# benchmark, which builds dfid (the system under test) the same way and
# whose last line of standard output is the result. Nothing here selects how
# dfid behaves.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The benchmark is a module of its own next to the one it measures; without
# the latter there is nothing to build, and the script stops here.
#
# Being a module of its own also keeps it out of the root's `go test ./...`,
# so the guards that hold it to dfid's defaults run here, where every later
# change to the repository passes: vet, the import allow-list, the search for
# anything that selects one of two implementations, and BENCHMARK.json
# against the program's tables. They read files only, and go caches them.
(
	cd "$root/benchmark"
	go vet ./...
	go test -run '^(TestImportsStayOnTheFacade|TestNoFileNamesATwin|TestBenchmarkJSONMatchesTables)$' .
	go build -o "$build/bin/benchmark" .
) >&2

exec "$build/bin/benchmark" -out "$root/.bench_out" "$@"
