#!/usr/bin/env sh
# check.sh — the full verification gate, a superset of the tier-1
# build+test check. Run from anywhere inside the repo; fails fast on
# the first broken stage.
#
#   1. go build ./...            every package compiles
#   1b. gofmt -l .               every Go file (benchmark/ included) is
#                                gofmt-clean; any listed file fails
#   2. go vet ./...              stock vet suite
#   3. go run ./cmd/coheralint   project-specific analyzers (see
#      ./...                     internal/analysis/doc.go), with
#                                per-analyzer wall times on stderr
#   3b. coheralint self-lint     the analysis framework and the linter
#                                CLI are explicitly held to their own
#                                rules (the ./... run covers them too,
#                                but this stage keeps them covered even
#                                if the main run is ever narrowed)
#   4. go run ./cmd/coherasmoke  daemon smoke: in-process coherad
#                                handler, /healthz 200, /metrics parses,
#                                a GROUP BY folded at the peers
#   5. go run ./cmd/coherachaos  seeded fault-injection harness: the
#      -smoke                    resilience invariants hold end to end,
#                                including the anti-entropy convergence
#                                stage (replica digests equal + journal
#                                empty after a seeded flap workload)
#   5b. go run ./cmd/coherachaos kill-and-restart: a durable federation
#      -crash                    child is SIGKILLed mid-workload and
#                                recovered from its WALs — digests
#                                identical, journal drained, no
#                                acknowledged write lost or doubled
#   5c. go run ./cmd/coherachaos overload SLO gate: open-loop load at
#      -overload                 4x measured capacity against the
#                                admission gate — typed sheds only,
#                                admitted p99 in SLO, no tenant
#                                starved, shed-free recovery
#   6. go test -race ./...       full tests under the race detector
#   6b. benchmark module         benchmark/ is a module of its own that
#                                compiles against internal/...; the root
#                                ./... does not reach it, so vet it and
#                                run its -quick self-test here
#   7. go test -fuzz ... 10s     fuzz smoke: parser, the /fetchstream
#                                frame reader over any body, the row
#                                frame codec (bit-exact round trips,
#                                accepted frames re-encode), WAL replay,
#                                the binary disk codec (WAL records,
#                                snapshots, journal intents) against
#                                its JSON reference, the pushdown split
#                                oracle, the one completing open
#                                (wrapper.OpenPushStream over any
#                                capability record against the whole
#                                request fused over the raw rows), the
#                                bound-vs-Eval oracle, the
#                                grouped fold over random partitions
#                                against one GROUP BY, the
#                                storage.Table-vs-model op sequences and
#                                the merge's key dedupe against a map
#                                model each survive a short run
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "gofmt: run gofmt -w on the files above" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> coheralint ./..."
go run ./cmd/coheralint -timings ./...

echo "==> coheralint self-lint (internal/analysis, cmd/coheralint)"
go run ./cmd/coheralint ./internal/analysis ./cmd/coheralint

echo "==> coherasmoke"
go run ./cmd/coherasmoke

echo "==> coherachaos -smoke"
go run ./cmd/coherachaos -smoke

echo "==> coherachaos -crash (kill -9 + restart recovery)"
go run ./cmd/coherachaos -crash -seed 42

echo "==> coherachaos -overload (open-loop admission SLO gate)"
go run ./cmd/coherachaos -overload -seed 42

echo "==> go test -race ./..."
go test -race ./...

echo "==> benchmark module (go vet + go test)"
(cd benchmark && go vet ./... && go test ./...)

echo "==> fuzz smoke (10s per target)"
go test -fuzz 'FuzzParse$' -fuzztime 10s ./internal/sqlparse/
go test -fuzz FuzzParseExpr -fuzztime 10s ./internal/sqlparse/
go test -fuzz FuzzDecodeStream -fuzztime 10s ./internal/remote/
go test -fuzz FuzzRowCodec -fuzztime 10s ./internal/remote/
go test -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal/
go test -fuzz FuzzDiskCodec -fuzztime 10s ./internal/exec/
go test -fuzz FuzzPushdownSplit -fuzztime 10s ./internal/plan/
go test -fuzz FuzzOpenPushStream -fuzztime 10s ./internal/wrapper/
go test -fuzz FuzzBoundEval -fuzztime 10s ./internal/plan/
go test -fuzz FuzzGroupFold -fuzztime 10s ./internal/plan/
go test -fuzz FuzzTableOps -fuzztime 10s ./internal/storage/
go test -fuzz FuzzMergeDedupe -fuzztime 10s ./internal/federation/

echo "check: all gates passed"
