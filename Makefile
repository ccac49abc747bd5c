GO ?= go

.PHONY: check build vet test race bench bench-key reproduce lint lint-fixtures lint-json smoke-metrics smoke-chaos smoke-serve smoke-stream smoke-live smoke-crash smoke-multi clean

# check is the tier-1 gate: vet, build, the analyzer suite (plus the guard
# that keeps its fixtures honest), the full test suite under the race
# detector, and the metrics, chaos, service, stream-replay, live-feed,
# crash-recovery, and multi-source smoke tests.
check: vet build lint lint-fixtures race smoke-metrics smoke-chaos smoke-serve smoke-stream smoke-live smoke-crash smoke-multi

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

# bench runs every experiment benchmark, then writes the machine-readable
# streaming-path report (chainaudit.bench/v1 schema: batch vs incremental
# index, window audits, live observer ingest with ship latency percentiles,
# and attributed multi-source observation with the divergence-audit
# counters) to the next free BENCH_N.json, one past the highest checked-in
# N; bench-key runs just the two the shared-index refactor is measured by.
# BENCH_N.json files are a perf trajectory and are never overwritten
# (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	n=$$(ls BENCH_*.json 2>/dev/null | sed 's/[^0-9]//g' | sort -n | tail -n 1); \
	$(GO) run ./cmd/chainbench -out BENCH_$$(( $${n:-0} + 1 )).json

bench-key:
	$(GO) test -bench='BenchmarkFig07PPE|BenchmarkTable2SelfInterest' -benchtime=3x -run=^$$ .

reproduce:
	$(GO) run ./cmd/reproduce

# smoke-metrics runs one small experiment with -metrics and validates the
# emitted manifest against the internal/obs schema, keeping the
# observability surface from rotting.
smoke-metrics:
	$(GO) run ./cmd/reproduce -exp fig7 -scale 0.1 -metrics /tmp/chainaudit-metrics.json > /dev/null
	$(GO) run ./cmd/reproduce -validate-metrics /tmp/chainaudit-metrics.json

# smoke-chaos exercises the fault-injection layer end to end. The zero-rate
# leg pins the tentpole invariant — a seeded plan with all rates at zero must
# leave stdout byte-identical to a plain run (wall-clock lines stripped).
# The fault leg must complete despite injected faults, actually fire at least
# one (-require-faults), and emit a manifest that validates and records them.
smoke-chaos:
	$(GO) run ./cmd/reproduce -exp table1,fig9 -scale 0.1 > /tmp/chainaudit-chaos-base.txt
	$(GO) run ./cmd/reproduce -exp table1,fig9 -scale 0.1 -chaos seed=77 > /tmp/chainaudit-chaos-zero.txt
	grep -v -e '^data sets ready' -e '^done:' /tmp/chainaudit-chaos-base.txt > /tmp/chainaudit-chaos-base.strip.txt
	grep -v -e '^data sets ready' -e '^done:' /tmp/chainaudit-chaos-zero.txt > /tmp/chainaudit-chaos-zero.strip.txt
	cmp /tmp/chainaudit-chaos-base.strip.txt /tmp/chainaudit-chaos-zero.strip.txt
	$(GO) run ./cmd/reproduce -exp table1,fig4,fig9 -scale 0.1 \
		-chaos 'seed=3,pool.outage=0.2,obs.miss=0.25,snap.blackout=0.3,snap.window=15m' \
		-require-faults -metrics /tmp/chainaudit-chaos-metrics.json > /dev/null
	$(GO) run ./cmd/reproduce -validate-metrics /tmp/chainaudit-chaos-metrics.json

# smoke-serve boots chainauditd on an ephemeral port and proves the service
# serves the same bytes the batch CLIs print: one experiment section diffed
# against cmd/reproduce (same seed/scale), one audit section diffed against
# cmd/chainaudit over a shared gendata CSV.
smoke-serve:
	$(GO) build -o /tmp/chainauditd ./cmd/chainauditd
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out /tmp/chainaudit-serve-chain.csv > /dev/null
	$(GO) run ./cmd/reproduce -exp fig2 -seed 5 -scale 0.1 \
		| sed -n '/^\#\#\# fig2$$/,/^done:/p' | sed '1d;$$d' > /tmp/chainaudit-serve-fig2-cli.txt
	$(GO) run ./cmd/chainaudit -chain /tmp/chainaudit-serve-chain.csv -ppe \
		| tail -n +3 > /tmp/chainaudit-serve-ppe-cli.txt
	rm -f /tmp/chainaudit-serve-addr
	/tmp/chainauditd -addr 127.0.0.1:0 -ready-file /tmp/chainaudit-serve-addr \
		-sim -seed 5 -scale 0.1 -chain main=/tmp/chainaudit-serve-chain.csv 2> /tmp/chainaudit-serve-log.txt & \
	DPID=$$!; trap 'kill $$DPID 2>/dev/null' EXIT; \
	tries=0; until [ -s /tmp/chainaudit-serve-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat /tmp/chainaudit-serve-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat /tmp/chainaudit-serve-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat /tmp/chainaudit-serve-addr) && \
	curl -sf "http://$$ADDR/v1/healthz" | grep -q '"status":"ok"' && \
	curl -sf "http://$$ADDR/v1/experiments" | grep -q '"id":"fig7"' && \
	curl -sf -X POST "http://$$ADDR/v1/experiments/fig2?format=text" > /tmp/chainaudit-serve-fig2-srv.txt && \
	curl -sf -X POST "http://$$ADDR/v1/audits/ppe?dataset=main&format=text" > /tmp/chainaudit-serve-ppe-srv.txt && \
	cmp /tmp/chainaudit-serve-fig2-cli.txt /tmp/chainaudit-serve-fig2-srv.txt && \
	cmp /tmp/chainaudit-serve-ppe-cli.txt /tmp/chainaudit-serve-ppe-srv.txt

# smoke-stream pins the streaming headline invariant end to end over real
# processes: record a gendata chain as an ingest stream, boot chainauditd
# with the same CSV as the batch reference, replay the stream into a fresh
# data set, and diff the streamed audits byte-for-byte against the batch
# ones (ppe, lowfee, darkfee) — full chain and sliding window.
smoke-stream:
	$(GO) build -o /tmp/chainauditd ./cmd/chainauditd
	$(GO) build -o /tmp/streamfeed ./cmd/streamfeed
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out /tmp/chainaudit-stream-chain.csv > /dev/null
	/tmp/streamfeed record -chain /tmp/chainaudit-stream-chain.csv \
		-out /tmp/chainaudit-stream.jsonl -batch 16 -dataset live
	rm -f /tmp/chainaudit-stream-addr
	/tmp/chainauditd -addr 127.0.0.1:0 -ready-file /tmp/chainaudit-stream-addr \
		-chain main=/tmp/chainaudit-stream-chain.csv 2> /tmp/chainaudit-stream-log.txt & \
	DPID=$$!; trap 'kill $$DPID 2>/dev/null' EXIT; \
	tries=0; until [ -s /tmp/chainaudit-stream-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat /tmp/chainaudit-stream-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat /tmp/chainaudit-stream-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat /tmp/chainaudit-stream-addr) && \
	/tmp/streamfeed replay -in /tmp/chainaudit-stream.jsonl -url "http://$$ADDR" -dataset live && \
	curl -sf "http://$$ADDR/v1/healthz" | grep -q '"watermark"' && \
	for q in 'ppe?format=text' 'lowfee?format=text' 'darkfee?format=text&pool=F2Pool' \
		'ppe?format=text&window=20' 'lowfee?format=text&window=20' 'darkfee?format=text&pool=F2Pool&window=20'; do \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=main" > /tmp/chainaudit-stream-batch.txt && \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=live" > /tmp/chainaudit-stream-live.txt && \
		cmp /tmp/chainaudit-stream-batch.txt /tmp/chainaudit-stream-live.txt || \
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
	$(GO) build -o /tmp/chainauditd ./cmd/chainauditd
	$(GO) build -o /tmp/chainobserver ./cmd/chainobserver
	$(GO) build -o /tmp/streamfeed ./cmd/streamfeed
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out /tmp/chainaudit-live-chain.csv > /dev/null
	rm -f /tmp/chainaudit-live-addr
	/tmp/chainauditd -addr 127.0.0.1:0 -ready-file /tmp/chainaudit-live-addr \
		-chain main=/tmp/chainaudit-live-chain.csv 2> /tmp/chainaudit-live-log.txt & \
	DPID=$$!; trap 'kill $$DPID 2>/dev/null' EXIT; \
	tries=0; until [ -s /tmp/chainaudit-live-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat /tmp/chainaudit-live-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat /tmp/chainaudit-live-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat /tmp/chainaudit-live-addr) && \
	/tmp/chainobserver -chain /tmp/chainaudit-live-chain.csv -url "http://$$ADDR" \
		-dataset live -record /tmp/chainaudit-live.jsonl -batch 16 && \
	/tmp/streamfeed replay -in /tmp/chainaudit-live.jsonl -url "http://$$ADDR" -dataset replay && \
	for q in 'ppe?format=text' 'lowfee?format=text' 'darkfee?format=text&pool=F2Pool' \
		'ppe?format=text&window=20' 'lowfee?format=text&window=20' 'darkfee?format=text&pool=F2Pool&window=20'; do \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=live" > /tmp/chainaudit-live-feed.txt && \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=replay" > /tmp/chainaudit-live-replay.txt && \
		curl -sf -X POST "http://$$ADDR/v1/audits/$$q&dataset=main" > /tmp/chainaudit-live-batch.txt && \
		cmp /tmp/chainaudit-live-feed.txt /tmp/chainaudit-live-replay.txt || \
		{ echo "smoke-live: $$q diverged between live feed and replayed recording"; exit 1; }; \
		cmp /tmp/chainaudit-live-feed.txt /tmp/chainaudit-live-batch.txt || \
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
	$(GO) build -o /tmp/chainauditd ./cmd/chainauditd
	$(GO) build -o /tmp/chainobserver ./cmd/chainobserver
	$(GO) build -o /tmp/streamfeed ./cmd/streamfeed
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out /tmp/chainaudit-crash-chain.csv > /dev/null
	rm -rf /tmp/chainaudit-crash-wal /tmp/chainaudit-crash-addr /tmp/chainaudit-crash-addr2
	mkdir -p /tmp/chainaudit-crash-wal
	/tmp/chainauditd -addr 127.0.0.1:0 -ready-file /tmp/chainaudit-crash-addr \
		-chain main=/tmp/chainaudit-crash-chain.csv -stream-dir /tmp/chainaudit-crash-wal \
		-stream-checkpoint 4 2> /tmp/chainaudit-crash-log.txt & \
	DPID=$$!; DPID2=; trap 'kill $$DPID $$DPID2 2>/dev/null' EXIT; \
	tries=0; until [ -s /tmp/chainaudit-crash-addr ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never became ready"; cat /tmp/chainaudit-crash-log.txt; exit 1; fi; \
		if ! kill -0 $$DPID 2>/dev/null; then echo "chainauditd died"; cat /tmp/chainaudit-crash-log.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR=$$(cat /tmp/chainaudit-crash-addr) && \
	/tmp/chainobserver -chain /tmp/chainaudit-crash-chain.csv -url "http://$$ADDR" \
		-dataset ref -record /tmp/chainaudit-crash.jsonl -batch 4 && \
	head -n 3 /tmp/chainaudit-crash.jsonl > /tmp/chainaudit-crash-part1.jsonl && \
	/tmp/streamfeed replay -in /tmp/chainaudit-crash-part1.jsonl -url "http://$$ADDR" -dataset live && \
	kill -9 $$DPID && \
	/tmp/chainauditd -addr 127.0.0.1:0 -ready-file /tmp/chainaudit-crash-addr2 \
		-chain main=/tmp/chainaudit-crash-chain.csv -stream-dir /tmp/chainaudit-crash-wal \
		-stream-checkpoint 4 2> /tmp/chainaudit-crash-log2.txt & \
	DPID2=$$!; \
	tries=0; until [ -s /tmp/chainaudit-crash-addr2 ]; do \
		tries=$$((tries+1)); \
		if [ $$tries -gt 1200 ]; then echo "chainauditd never recovered"; cat /tmp/chainaudit-crash-log2.txt; exit 1; fi; \
		if ! kill -0 $$DPID2 2>/dev/null; then echo "chainauditd died on recovery"; cat /tmp/chainaudit-crash-log2.txt; exit 1; fi; \
		sleep 0.1; \
	done; \
	ADDR2=$$(cat /tmp/chainaudit-crash-addr2) && \
	curl -sf "http://$$ADDR2/v1/healthz" | grep -q '"recovery"' && \
	/tmp/chainobserver -chain /tmp/chainaudit-crash-chain.csv -url "http://$$ADDR2" \
		-dataset live -batch 4 -resume > /tmp/chainaudit-crash-resume.txt && \
	grep -q 'resuming dataset live above recovered height' /tmp/chainaudit-crash-resume.txt && \
	curl -sf "http://$$ADDR2/v1/healthz" | sed 's/},{/}\n{/g' > /tmp/chainaudit-crash-health.txt && \
	SNAP_LIVE=$$(grep '"name":"live"' /tmp/chainaudit-crash-health.txt | sed -n 's/.*"snapshots":\([0-9]*\).*/\1/p') && \
	SNAP_REF=$$(grep '"name":"ref"' /tmp/chainaudit-crash-health.txt | sed -n 's/.*"snapshots":\([0-9]*\).*/\1/p') && \
	if [ -z "$$SNAP_LIVE" ] || [ "$$SNAP_LIVE" != "$$SNAP_REF" ]; then \
		echo "smoke-crash: resumed snapshots '$$SNAP_LIVE' != uninterrupted '$$SNAP_REF' (frames lost or duplicated)"; exit 1; \
	fi; \
	LEN_LIVE=$$(grep '"name":"live"' /tmp/chainaudit-crash-health.txt | sed -n 's/.*"index_len":\([0-9]*\).*/\1/p') && \
	LEN_REF=$$(grep '"name":"ref"' /tmp/chainaudit-crash-health.txt | sed -n 's/.*"index_len":\([0-9]*\).*/\1/p') && \
	if [ -z "$$LEN_LIVE" ] || [ "$$LEN_LIVE" != "$$LEN_REF" ]; then \
		echo "smoke-crash: resumed index length '$$LEN_LIVE' != uninterrupted '$$LEN_REF'"; exit 1; \
	fi; \
	for q in 'ppe?format=text' 'lowfee?format=text' 'darkfee?format=text&pool=F2Pool' \
		'ppe?format=text&window=20' 'lowfee?format=text&window=20' 'darkfee?format=text&pool=F2Pool&window=20'; do \
		curl -sf -X POST "http://$$ADDR2/v1/audits/$$q&dataset=live" > /tmp/chainaudit-crash-live.txt && \
		curl -sf -X POST "http://$$ADDR2/v1/audits/$$q&dataset=ref" > /tmp/chainaudit-crash-ref.txt && \
		curl -sf -X POST "http://$$ADDR2/v1/audits/$$q&dataset=main" > /tmp/chainaudit-crash-batch.txt && \
		cmp /tmp/chainaudit-crash-live.txt /tmp/chainaudit-crash-ref.txt || \
		{ echo "smoke-crash: $$q diverged between resumed feed and uninterrupted feed"; exit 1; }; \
		cmp /tmp/chainaudit-crash-live.txt /tmp/chainaudit-crash-batch.txt || \
		{ echo "smoke-crash: $$q diverged between resumed feed and batch reference"; exit 1; }; \
	done

# smoke-multi pins the multi-source observation invariants in process: two
# concurrent observers with different chaos specs — one behind a planted 30s
# lag — feed one shared set. The merged index and PPE audit must be
# byte-identical to a single-source baseline over the same chain (the merged
# min-time view is lag-invariant because the clean source always sees first),
# and the divergence audit must flag exactly the planted laggard.
smoke-multi:
	$(GO) build -o /tmp/chainobserver ./cmd/chainobserver
	$(GO) run ./cmd/gendata -set C -seed 9 -hours 5 -out /tmp/chainaudit-multi-chain.csv > /dev/null
	/tmp/chainobserver -chain /tmp/chainaudit-multi-chain.csv -inprocess -batch 16 \
		> /tmp/chainaudit-multi-single.txt
	/tmp/chainobserver -chain /tmp/chainaudit-multi-chain.csv -inprocess -batch 16 \
		-sources 2 -source-lag s2=30s -source-chaos 's2=seed=5,p2p.dup=0.2' \
		> /tmp/chainaudit-multi-double.txt
	sed -n '/^in-process index:/,/^$$/p' /tmp/chainaudit-multi-single.txt > /tmp/chainaudit-multi-single-audit.txt
	sed -n '/^in-process index:/,/^$$/p' /tmp/chainaudit-multi-double.txt > /tmp/chainaudit-multi-double-audit.txt
	cmp /tmp/chainaudit-multi-single-audit.txt /tmp/chainaudit-multi-double-audit.txt || \
		{ echo "smoke-multi: merged audit diverged from single-source baseline"; exit 1; }
	grep -q 'flagged: s2$$' /tmp/chainaudit-multi-double.txt || \
		{ echo "smoke-multi: divergence did not flag exactly the planted laggard:"; \
		  grep '^divergence:' /tmp/chainaudit-multi-double.txt; exit 1; }

clean:
	$(GO) clean ./...
	rm -f lint.json
