GO ?= go

.PHONY: check build vet test race bench bench-short sim-scale reproduce lint lint-fixtures lint-json smoke-metrics smoke-chaos smoke-serve smoke-stream smoke-live smoke-crash smoke-multi clean

# check is the tier-1 gate: vet, build, the analyzer suite (plus the guard
# that keeps its fixtures honest), the full test suite under the race
# detector, the metrics, chaos, service, stream-replay, live-feed,
# crash-recovery, and multi-source smoke tests, and a short run of the
# benchmark with all its output checks. Each smoke gate runs as one
# `set -e` shell that writes only under its own mktemp -d directory and
# removes it when it exits, so concurrent runs never share a path; a
# daemon's exit trap runs with `set +e`, since its kill may find the daemon
# already gone, and waits for the daemon before it removes the directory:
# a terminated chainauditd still writes its final checkpoints there.
check: vet build lint lint-fixtures race smoke-metrics smoke-chaos smoke-serve smoke-stream smoke-live smoke-crash smoke-multi bench-short

# lint runs the determinism & concurrency/durability analyzer suite
# (DESIGN.md §9) over every module package. Any unsuppressed finding fails
# the gate; the failure output attributes counts per analyzer.
lint:
	$(GO) run ./cmd/chainauditlint ./...

# lint-fixtures proves each analyzer still fires. The -fixtures self-test
# derives the analyzer list from the registry itself, so a newly registered
# analyzer can never ship without a firing fixture — a fixture that stops
# producing its diagnostic means a silently dead analyzer, and fails here
# before it can rot.
lint-fixtures:
	$(GO) run ./cmd/chainauditlint -fixtures

# lint-json emits the chainaudit.lint/v1 report (totals, per-analyzer
# counts, findings incl. the suppression audit trail) to lint.json for CI
# artifacts. Findings (exit 1) still produce the artifact; only loader or
# type-check errors (exit 2) fail the target.
lint-json:
	$(GO) run ./cmd/chainauditlint -json ./... > lint.json; \
	code=$$?; if [ $$code -ne 0 ] && [ $$code -ne 1 ]; then exit $$code; fi
	@echo "lint-json: wrote lint.json"

# perfbench is its own module (it pins the benchmark's dependencies), so the
# root ./... pattern skips it; build and vet it explicitly so an API break in
# the packages it drives fails here rather than when the benchmark runs. Its
# binary is discarded: the benchmark builds its own.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs perfbench, the one performance ledger (perfbench/README.md):
# ten runs of every workload with their spreads, bounds and per-layer
# metrics, written as JSON lines to .bench_build/steady.jsonl (removed first:
# steady appends). Compare two such files with
# `bash perfbench/run.sh compare parent.jsonl change.jsonl`. The checked-in
# BENCH_6..8.json are frozen history from an earlier harness; nothing
# regenerates them.
bench:
	rm -f .bench_build/steady.jsonl
	bash perfbench/run.sh steady -out .bench_build/steady.jsonl

# bench-short runs every perfbench workload once at a tiny size with every
# output check kept, so check fails when the benchmark stops running or its
# checks fail.
bench-short:
	bash perfbench/run.sh --short

# sim-scale times data set C builds (gendata -set C -seed 11) at the spans
# of the BuildC scaling table in EXPERIMENTS.md and prints each span's wall
# seconds and the sha256 of its chain CSV, so the table, and the CSVs'
# identity across a change, can be regenerated. It builds gendata from this
# checkout; GENDATA=/path/to/gendata times another build instead (say, one
# made from the parent commit). It takes minutes, so check does not run it.
sim-scale:
	@set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	G="$(GENDATA)"; if [ -z "$$G" ]; then G="$$T/gendata"; $(GO) build -o "$$G" ./cmd/gendata; fi; \
	printf '%5s %8s  %s\n' hours wall_s csv_sha256; \
	for h in 8 24 48 96; do \
		s=$$(date +%s%N); \
		"$$G" -set C -seed 11 -hours $$h -out "$$T/C$$h.csv" > /dev/null; \
		e=$$(date +%s%N); \
		printf '%5s %8s  %s\n' $$h $$(awk -v s=$$s -v e=$$e 'BEGIN { printf "%.1f", (e - s) / 1e9 }') \
			$$(sha256sum "$$T/C$$h.csv" | cut -d' ' -f1); \
	done

reproduce:
	$(GO) run ./cmd/reproduce

# smoke-metrics runs one small experiment with -metrics and validates the
# emitted manifest against the internal/obs schema, keeping the
# observability surface from rotting.
smoke-metrics:
	set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	$(GO) run ./cmd/reproduce -exp fig7 -scale 0.1 -metrics $$T/chainaudit-metrics.json > /dev/null; \
	$(GO) run ./cmd/reproduce -validate-metrics $$T/chainaudit-metrics.json

# smoke-chaos exercises the fault-injection layer end to end. The zero-rate
# leg pins the tentpole invariant — a seeded plan with all rates at zero must
# leave stdout byte-identical to a plain run (wall-clock lines stripped).
# The fault leg must complete despite injected faults, actually fire at least
# one (-require-faults), and emit a manifest that validates and records them.
smoke-chaos:
	set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	$(GO) run ./cmd/reproduce -exp table1,fig9 -scale 0.1 > $$T/chainaudit-chaos-base.txt; \
	$(GO) run ./cmd/reproduce -exp table1,fig9 -scale 0.1 -chaos seed=77 > $$T/chainaudit-chaos-zero.txt; \
	grep -v -e '^data sets ready' -e '^done:' $$T/chainaudit-chaos-base.txt > $$T/chainaudit-chaos-base.strip.txt; \
	grep -v -e '^data sets ready' -e '^done:' $$T/chainaudit-chaos-zero.txt > $$T/chainaudit-chaos-zero.strip.txt; \
	cmp $$T/chainaudit-chaos-base.strip.txt $$T/chainaudit-chaos-zero.strip.txt; \
	$(GO) run ./cmd/reproduce -exp table1,fig4,fig9 -scale 0.1 \
		-chaos 'seed=3,pool.outage=0.2,obs.miss=0.25,snap.blackout=0.3,snap.window=15m' \
		-require-faults -metrics $$T/chainaudit-chaos-metrics.json > /dev/null; \
	$(GO) run ./cmd/reproduce -validate-metrics $$T/chainaudit-chaos-metrics.json

# smoke-serve boots chainauditd on an ephemeral port and proves the service
# serves the same bytes the batch CLIs print: one experiment section diffed
# against cmd/reproduce (same seed/scale), one audit section diffed against
# cmd/chainaudit over a shared gendata CSV.
smoke-serve:
	set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	$(GO) build -o $$T/chainauditd ./cmd/chainauditd; \
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out $$T/chainaudit-serve-chain.csv > /dev/null; \
	$(GO) run ./cmd/reproduce -exp fig2 -seed 5 -scale 0.1 \
		| sed -n '/^\#\#\# fig2$$/,/^done:/p' | sed '1d;$$d' > $$T/chainaudit-serve-fig2-cli.txt; \
	$(GO) run ./cmd/chainaudit -chain $$T/chainaudit-serve-chain.csv -ppe \
		| tail -n +3 > $$T/chainaudit-serve-ppe-cli.txt; \
	rm -f $$T/chainaudit-serve-addr; \
	$$T/chainauditd -addr 127.0.0.1:0 -ready-file $$T/chainaudit-serve-addr \
		-sim -seed 5 -scale 0.1 -chain main=$$T/chainaudit-serve-chain.csv 2> $$T/chainaudit-serve-log.txt & \
	DPID=$$!; trap 'set +e; kill $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; rm -rf "$$T"' EXIT; \
	tries=0; until [ -s $$T/chainaudit-serve-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat $$T/chainaudit-serve-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat $$T/chainaudit-serve-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat $$T/chainaudit-serve-addr) && \
	curl -sf "http://$$ADDR/v1/healthz" | grep -q '"status":"ok"' && \
	curl -sf "http://$$ADDR/v1/experiments" | grep -q '"id":"fig7"' && \
	curl -sf -X POST "http://$$ADDR/v1/experiments/fig2?format=text" > $$T/chainaudit-serve-fig2-srv.txt && \
	curl -sf -X POST "http://$$ADDR/v1/audits/ppe?dataset=main&format=text" > $$T/chainaudit-serve-ppe-srv.txt && \
	cmp $$T/chainaudit-serve-fig2-cli.txt $$T/chainaudit-serve-fig2-srv.txt && \
	cmp $$T/chainaudit-serve-ppe-cli.txt $$T/chainaudit-serve-ppe-srv.txt

# smoke-stream pins the streaming headline invariant end to end over real
# processes: record a gendata chain as an ingest stream, boot chainauditd
# with the same CSV as the batch reference, replay the stream into a fresh
# data set, and diff the streamed audits byte-for-byte against the batch
# ones (ppe, lowfee, darkfee) — full chain and sliding window.
smoke-stream:
	set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	$(GO) build -o $$T/chainauditd ./cmd/chainauditd; \
	$(GO) build -o $$T/streamfeed ./cmd/streamfeed; \
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out $$T/chainaudit-stream-chain.csv > /dev/null; \
	$$T/streamfeed record -chain $$T/chainaudit-stream-chain.csv \
		-out $$T/chainaudit-stream.jsonl -batch 16 -dataset live; \
	rm -f $$T/chainaudit-stream-addr; \
	$$T/chainauditd -addr 127.0.0.1:0 -ready-file $$T/chainaudit-stream-addr \
		-chain main=$$T/chainaudit-stream-chain.csv 2> $$T/chainaudit-stream-log.txt & \
	DPID=$$!; trap 'set +e; kill $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; rm -rf "$$T"' EXIT; \
	tries=0; until [ -s $$T/chainaudit-stream-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat $$T/chainaudit-stream-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat $$T/chainaudit-stream-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat $$T/chainaudit-stream-addr) && \
	$$T/streamfeed replay -in $$T/chainaudit-stream.jsonl -url "http://$$ADDR" -dataset live && \
	curl -sf "http://$$ADDR/v1/healthz" | grep -q '"watermark"' && \
	for q in 'ppe?format=text' 'lowfee?format=text' 'darkfee?format=text&pool=F2Pool' \
		'ppe?format=text&window=20' 'lowfee?format=text&window=20' 'darkfee?format=text&pool=F2Pool&window=20'; do \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=main" > $$T/chainaudit-stream-batch.txt && \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=live" > $$T/chainaudit-stream-live.txt && \
		cmp $$T/chainaudit-stream-batch.txt $$T/chainaudit-stream-live.txt || \
		{ echo "smoke-stream: $$q diverged between batch and stream"; exit 1; }; \
	done

# smoke-live closes the streaming loop over real processes: chainobserver
# replays a gendata chain through a two-node p2p network and ships what the
# watcher observes into chainauditd over HTTP, teeing its own recording;
# streamfeed then replays that recording into a second data set. The live
# feed, the replay of its recording, and the CSV-loaded batch reference must
# all serve byte-identical audits (ppe, lowfee, darkfee) — full chain and
# sliding window.
smoke-live:
	set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	$(GO) build -o $$T/chainauditd ./cmd/chainauditd; \
	$(GO) build -o $$T/chainobserver ./cmd/chainobserver; \
	$(GO) build -o $$T/streamfeed ./cmd/streamfeed; \
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out $$T/chainaudit-live-chain.csv > /dev/null; \
	rm -f $$T/chainaudit-live-addr; \
	$$T/chainauditd -addr 127.0.0.1:0 -ready-file $$T/chainaudit-live-addr \
		-chain main=$$T/chainaudit-live-chain.csv 2> $$T/chainaudit-live-log.txt & \
	DPID=$$!; trap 'set +e; kill $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; rm -rf "$$T"' EXIT; \
	tries=0; until [ -s $$T/chainaudit-live-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat $$T/chainaudit-live-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat $$T/chainaudit-live-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat $$T/chainaudit-live-addr) && \
	$$T/chainobserver -chain $$T/chainaudit-live-chain.csv -url "http://$$ADDR" \
		-dataset live -record $$T/chainaudit-live.jsonl -batch 16 && \
	$$T/streamfeed replay -in $$T/chainaudit-live.jsonl -url "http://$$ADDR" -dataset replay && \
	for q in 'ppe?format=text' 'lowfee?format=text' 'darkfee?format=text&pool=F2Pool' \
		'ppe?format=text&window=20' 'lowfee?format=text&window=20' 'darkfee?format=text&pool=F2Pool&window=20'; do \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=live" > $$T/chainaudit-live-feed.txt && \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=replay" > $$T/chainaudit-live-replay.txt && \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=main" > $$T/chainaudit-live-batch.txt && \
		cmp $$T/chainaudit-live-feed.txt $$T/chainaudit-live-replay.txt || \
		{ echo "smoke-live: $$q diverged between live feed and replayed recording"; exit 1; }; \
		cmp $$T/chainaudit-live-feed.txt $$T/chainaudit-live-batch.txt || \
		{ echo "smoke-live: $$q diverged between live feed and batch reference"; exit 1; }; \
	done

# smoke-crash pins the durability headline invariant (DESIGN.md §13) over
# real processes and a real SIGKILL: boot chainauditd with a WAL directory,
# run a full live observer feed into a reference data set (teeing the exact
# frames it ships), replay a mid-stream prefix of that recording into a
# second set, kill -9 the daemon, restart it over the same directory, and
# resume the observer against the recovered watermark. The resumed set, the
# WAL-recovered reference set, and the CSV-loaded batch set must serve
# byte-identical audits (ppe, lowfee, darkfee) — full chain and sliding
# window — and the resumed
# set's snapshot and block counts must equal the uninterrupted one's, which
# pins every snapshot frame (zero lost, zero duplicated).
smoke-crash:
	set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	$(GO) build -o $$T/chainauditd ./cmd/chainauditd; \
	$(GO) build -o $$T/chainobserver ./cmd/chainobserver; \
	$(GO) build -o $$T/streamfeed ./cmd/streamfeed; \
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out $$T/chainaudit-crash-chain.csv > /dev/null; \
	rm -rf $$T/chainaudit-crash-wal $$T/chainaudit-crash-addr $$T/chainaudit-crash-addr2; \
	mkdir -p $$T/chainaudit-crash-wal; \
	$$T/chainauditd -addr 127.0.0.1:0 -ready-file $$T/chainaudit-crash-addr \
		-chain main=$$T/chainaudit-crash-chain.csv -stream-dir $$T/chainaudit-crash-wal \
		-stream-checkpoint 4 2> $$T/chainaudit-crash-log.txt & \
	DPID=$$!; DPID2=; trap 'set +e; kill $$DPID $$DPID2 2>/dev/null; wait $$DPID $$DPID2 2>/dev/null; rm -rf "$$T"' EXIT; \
	tries=0; until [ -s $$T/chainaudit-crash-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat $$T/chainaudit-crash-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat $$T/chainaudit-crash-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat $$T/chainaudit-crash-addr) && \
	$$T/chainobserver -chain $$T/chainaudit-crash-chain.csv -url "http://$$ADDR" \
		-dataset ref -record $$T/chainaudit-crash.jsonl -batch 4 && \
	head -n 3 $$T/chainaudit-crash.jsonl > $$T/chainaudit-crash-part1.jsonl && \
	$$T/streamfeed replay -in $$T/chainaudit-crash-part1.jsonl -url "http://$$ADDR" -dataset live && \
	kill -9 $$DPID && \
	$$T/chainauditd -addr 127.0.0.1:0 -ready-file $$T/chainaudit-crash-addr2 \
		-chain main=$$T/chainaudit-crash-chain.csv -stream-dir $$T/chainaudit-crash-wal \
		-stream-checkpoint 4 2> $$T/chainaudit-crash-log2.txt & \
	DPID2=$$!; \
	tries=0; until [ -s $$T/chainaudit-crash-addr2 ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never recovered"; cat $$T/chainaudit-crash-log2.txt; exit 1; fi; \
		if ! kill -0 $$DPID2 2>/dev/null; then echo "chainauditd died on recovery"; cat $$T/chainaudit-crash-log2.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR2=$$(cat $$T/chainaudit-crash-addr2) && \
	curl -sf "http://$$ADDR2/v1/healthz" | grep -q '"recovery"' && \
	$$T/chainobserver -chain $$T/chainaudit-crash-chain.csv -url "http://$$ADDR2" \
		-dataset live -batch 4 -resume > $$T/chainaudit-crash-resume.txt && \
	grep -q 'resuming dataset live above recovered height' $$T/chainaudit-crash-resume.txt && \
	curl -sf "http://$$ADDR2/v1/healthz" | sed 's/},{/}\n{/g' > $$T/chainaudit-crash-health.txt && \
	SNAP_LIVE=$$(grep '"name":"live"' $$T/chainaudit-crash-health.txt | sed -n 's/.*"snapshots":\([0-9]*\).*/\1/p') && \
	SNAP_REF=$$(grep '"name":"ref"' $$T/chainaudit-crash-health.txt | sed -n 's/.*"snapshots":\([0-9]*\).*/\1/p') && \
	if [ -z "$$SNAP_LIVE" ] || [ "$$SNAP_LIVE" != "$$SNAP_REF" ]; then \
		echo "smoke-crash: resumed snapshots '$$SNAP_LIVE' != uninterrupted '$$SNAP_REF' (frames lost or duplicated)"; exit 1; \
	fi; \
	LEN_LIVE=$$(grep '"name":"live"' $$T/chainaudit-crash-health.txt | sed -n 's/.*"index_len":\([0-9]*\).*/\1/p') && \
	LEN_REF=$$(grep '"name":"ref"' $$T/chainaudit-crash-health.txt | sed -n 's/.*"index_len":\([0-9]*\).*/\1/p') && \
	if [ -z "$$LEN_LIVE" ] || [ "$$LEN_LIVE" != "$$LEN_REF" ]; then \
		echo "smoke-crash: resumed index length '$$LEN_LIVE' != uninterrupted '$$LEN_REF'"; exit 1; \
	fi; \
	for q in 'ppe?format=text' 'lowfee?format=text' 'darkfee?format=text&pool=F2Pool' \
		'ppe?format=text&window=20' 'lowfee?format=text&window=20' 'darkfee?format=text&pool=F2Pool&window=20'; do \
		curl -sf -X POST "http://$$ADDR2/v1/audits/$$q&dataset=live" > $$T/chainaudit-crash-live.txt && \
		curl -sf -X POST "http://$$ADDR2/v1/audits/$$q&dataset=ref" > $$T/chainaudit-crash-ref.txt && \
		curl -sf -X POST "http://$$ADDR2/v1/audits/$$q&dataset=main" > $$T/chainaudit-crash-batch.txt && \
		cmp $$T/chainaudit-crash-live.txt $$T/chainaudit-crash-ref.txt || \
		{ echo "smoke-crash: $$q diverged between resumed feed and uninterrupted feed"; exit 1; }; \
		cmp $$T/chainaudit-crash-live.txt $$T/chainaudit-crash-batch.txt || \
		{ echo "smoke-crash: $$q diverged between resumed feed and batch reference"; exit 1; }; \
	done

# smoke-multi pins the multi-source observation invariants in process: two
# concurrent observers with different chaos specs — one behind a planted 30s
# lag — feed one shared set. The merged index and PPE audit must be
# byte-identical to a single-source baseline over the same chain (the merged
# min-time view is lag-invariant because the clean source always sees first),
# and the divergence audit must flag exactly the planted laggard.
smoke-multi:
	set -e; T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT; \
	$(GO) build -o $$T/chainobserver ./cmd/chainobserver; \
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out $$T/chainaudit-multi-chain.csv > /dev/null; \
	$$T/chainobserver -chain $$T/chainaudit-multi-chain.csv -inprocess -batch 16 \
		> $$T/chainaudit-multi-single.txt; \
	$$T/chainobserver -chain $$T/chainaudit-multi-chain.csv -inprocess -batch 16 \
		-sources 2 -source-lag s2=30s -source-chaos 's2=seed=5,p2p.dup=0.2' \
		> $$T/chainaudit-multi-double.txt; \
	sed -n '/^in-process index:/,/^$$/p' $$T/chainaudit-multi-single.txt > $$T/chainaudit-multi-single-audit.txt; \
	sed -n '/^in-process index:/,/^$$/p' $$T/chainaudit-multi-double.txt > $$T/chainaudit-multi-double-audit.txt; \
	cmp $$T/chainaudit-multi-single-audit.txt $$T/chainaudit-multi-double-audit.txt || \
		{ echo "smoke-multi: merged audit diverged from single-source baseline"; exit 1; }; \
	grep -q 'flagged: s2$$' $$T/chainaudit-multi-double.txt || \
		{ echo "smoke-multi: divergence did not flag exactly the planted laggard:"; \
		  grep '^divergence:' $$T/chainaudit-multi-double.txt; exit 1; }

clean:
	$(GO) clean ./...
	rm -f lint.json
