GO ?= go

.PHONY: build test bench-module race lint vet fmt bench load

build:
	$(GO) build ./...

test: bench-module
	$(GO) test ./...

# bench/ is a module of its own (BENCHMARK.json's contract), so ./... at
# the root never compiles it; this keeps it building against the packages
# it imports.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repo's own invariant checkers in parallel dependency
# order, writing the SARIF report beside the binaries. It must exit
# clean: there is no baseline file, and CI runs the same command as a
# blocking step.
lint:
	$(GO) vet ./...
	mkdir -p bin
	$(GO) run ./cmd/cfsf-lint -parallel 0 -sarif bin/cfsf-lint.sarif ./...

vet:
	$(GO) vet ./...

# bench runs the online-path and apply-path benchmarks with allocation
# stats — the same set CI archives into BENCH_predict.json and gates on
# (BenchmarkPredict and BenchmarkPredictLedger must report 0 allocs/op,
# and BenchmarkPredictLedger's ns/op is fenced; BenchmarkApplyLedger's B/op
# and BenchmarkRecommendColdLedger/ask10's ns/op and B/op and /deep128's
# ns/op are fenced). BenchmarkRecommend matches the cold-scan benchmarks
# too, every row of the ledger one (n10, ask10, deep128) included.
# BenchmarkTrainLedger is the first-boot train; CI fences its
# kmeans-sweeps and B/op. BenchmarkDrainFullQueue is the manager's drain
# rule on a full default queue (4096 ratings, one Apply).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPredict$$|BenchmarkPredictColdCache|BenchmarkPredictLedger|BenchmarkRecommend' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkApplyLedger' -benchtime 200x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkTrainLedger' -benchtime 5x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkDrainFullQueue' -benchtime 5x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkDrainPrefix' -benchmem ./internal/lifecycle

fmt:
	gofmt -l -w .

# load replays the smoke load scenarios (steady mix + kill-and-recover)
# against a freshly built cfsf-server and gates the results through
# cmd/benchjson — the same pipeline CI's loadgen-smoke job runs. The
# full-length committed scenarios run with plain
# `cfsf-loadgen -server-bin bin/cfsf-server <scenario>`.
load:
	mkdir -p bin
	$(GO) build -o bin/cfsf-server ./cmd/cfsf-server
	$(GO) build -o bin/cfsf-loadgen ./cmd/cfsf-loadgen
	bin/cfsf-loadgen -server-bin bin/cfsf-server -duration-ms 3000 -qps 60 -bench steady killrecover | tee loadgen-bench.txt
	$(GO) run ./cmd/benchjson \
		-max 'BenchmarkLoadgen/steady/(predict|recommend|rate|batch)$$:err-rate=0.001' \
		-max 'BenchmarkLoadgen/killrecover/(predict|recommend|rate)$$:err-rate=0.01' \
		-max 'BenchmarkLoadgen/killrecover/recovery$$:recovery-ms=30000' \
		-max 'BenchmarkLoadgen/(steady|killrecover)/drain$$:drain-ms=10000' \
		-o BENCH_loadgen.json < loadgen-bench.txt
