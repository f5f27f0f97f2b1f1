#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md): formatting, vet, build, full
# test suite, a race-detector pass over the concurrent packages (the
# experiment harness fans out over workers; the obs counters are shared
# atomics; xrand's once-guarded first use), an import-graph check (only
# cmd/admitd links net/http, internal/obs imports nothing under net/, and
# the perfbench module still vets), a one-iteration bench smoke so
# every benchmark keeps compiling and running, a fault-injection pass over
# the hardened pipeline (injected sample panics and RTA aborts, plus
# mid-sweep cancellation; DESIGN.md §9), short fuzz smokes for the invariant
# checker, RM-TS against its RM-TS/light twin on light sets, the cached
# per-processor utilization against a fresh in-order sum, the task-set
# parser, the warm-state removal invalidation, every RTA kernel on
# incremental and list-loaded ProcStates against the array-of-structs
# reference analysis (and the responses an admitted insert adopts against
# a cold analysis), every
# utilization bound's scratch evaluation against its slice-based
# reference, every utilization bound's soundness against exact RTA
# (FuzzPUBSound), the integer Han–Tyan test against its former float
# implementation and an exact-rational folding (FuzzHanTyanVsReference),
# every utilization-threshold admission (LL, HB, HT, the online threshold
# policy) against exact RTA at the threshold's corner (FuzzThresholdSound),
# the worst-fit tree against the scan it replaced (FuzzWorstFitTree), an
# arena reused across calls against a fresh arena per call, so a set it
# prepared once and then offers again is judged alike (FuzzArenaPreparedSet),
# the admission prefilter's soundness and that of the utilization refusal in
# the online engine and the batch partitioners, the online rta-ff/rta-wf
# policies against the batch P-RM-FF/WF they twin (FuzzOnlineBatchTwin), the
# uniprocessor simulator against exact RTA (FuzzSimVsRTA), the partitioned
# simulator and Assignment.Validate against the implementations they
# replaced (FuzzSimVsReference, FuzzValidateVsReference), the admission
# service's rejection evidence and verdict JSON (each against its oracle), the
# global-RM simulator, the EDF-TS budget search, the EDF check interval and
# the EDF-TS window split (each against the implementation it replaced,
# kept in its tests), EDF-TS and EDF-FF termination on periods up to
# task.MaxTime (the model's domain), a
# -paranoid quick table that re-validates every partitioning the harness
# produces, a telemetry smoke that schema-lints a run-event log (including
# the rejection-cause breakdown), an explain-replay golden (a fixed
# recipe must render a byte-identical why-report), a CLI vocabulary smoke
# (every command resolves algorithm names through one registry), an
# admitd smoke that boots the admission service and drives the
# admit→remove→re-admit cycle
# plus a load run through its -check client (an EXIT trap stops any daemon
# a failing step leaves running and removes its temp files), a metrics lint that
# grammar-checks the daemon's live Prometheus exposition and schema-checks
# its JSONL access log (DESIGN.md §15), a crash-recovery smoke that
# churns a journaled admitd, SIGKILLs it and requires the restarted daemon
# to recover a digest-identical canonical state (DESIGN.md §14), and a
# perf-regression gate diffing the regenerated hot-path bench record
# against the committed baseline (DESIGN.md §10), which also holds the new
# record to the absolute ns/op ceilings declared in internal/perfdiff
# (E2AcceptanceGeneral under 700µs/op, AdmitService above ~140k
# admissions/sec, the journaled service under 15µs/op). Run from the
# repository root; any failure fails the gate.
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrency-sensitive packages) =="
# The experiments race pass exercises the reuse path: pooled
# per-worker workspaces with arenas and persistent RNGs under -race.
go test -race -short repro/internal/experiments repro/internal/obs repro/internal/obs/obshttp repro/internal/partition repro/internal/admit
# Alone, this test is the process's first xrand.Seed: 8 goroutines race
# into the once-guarded table recovery and self-check.
go test -race -count=1 -run '^TestConcurrentFirstUse$' repro/internal/xrand

echo "== import graph (only cmd/admitd links net/http; obs imports nothing under net/) =="
# Every command links obs; the HTTP surface lives in obs/obshttp so the
# commands that serve nothing start without net/http, crypto/tls and x509.
for pkg in $(go list ./cmd/...); do
    [ "$pkg" = repro/cmd/admitd ] && continue
    if go list -deps "$pkg" | grep -qx 'net/http'; then
        echo "$pkg links net/http; only repro/cmd/admitd may" >&2
        exit 1
    fi
done
if go list -deps repro/internal/obs | grep -q '^net\(/\|$\)'; then
    echo "repro/internal/obs depends on a net package:" >&2
    go list -deps repro/internal/obs | grep '^net\(/\|$\)' >&2
    exit 1
fi
# The benchmark module builds against this tree; it must keep compiling.
(cd perfbench && GOPROXY=off go vet .)

echo "== alloc guards (hot paths must stay zero-allocation) =="
go test -run AllocGuard repro/internal/rta repro/internal/split repro/internal/partition repro/internal/gen repro/internal/admit repro/internal/edfa repro/internal/global repro/internal/sim repro/internal/experiments

echo "== fault injection (every injected fault must surface as a seed-reproducible SampleError) =="
go test repro/internal/faultinject
go test -count=1 -run 'TestInjected|TestMidSweepCancellation' repro/internal/experiments

echo "== fuzz smokes (invariant checker, RM-TS vs its light twin, cached utilization vs a fresh sum, threshold admissions vs exact RTA at their corner, worst-fit tree vs scan, reused arena vs a fresh one, prefilter and utilization-refusal soundness (online and batch), online rta-ff/rta-wf vs batch P-RM-FF/WF, simulator vs exact RTA, simulator and assignment validation vs their former implementations, task-set parser round trip, removal invalidation, RTA kernels vs their reference, PUB scratch evaluation vs its reference, PUB soundness vs exact RTA, Han–Tyan vs its former implementation, journal replay, rejection evidence and verdict JSON vs their oracles, global simulator, EDF budget search, EDF check interval and EDF-TS window split vs their former implementations, EDF termination on periods up to the domain limit) =="
go test -run '^$' -fuzz FuzzValidate -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzRMTSLightTwin -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzThresholdSound -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzWorstFitTree -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzArenaPreparedSet -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzAssignmentUtil -fuzztime 5s repro/internal/task
go test -run '^$' -fuzz FuzzPrefilterSound -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzUtilSkipSound -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzBatchUtilRuleSound -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzOnlineBatchTwin -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzSimVsRTA -fuzztime 5s repro/internal/sim
go test -run '^$' -fuzz FuzzSimVsReference -fuzztime 5s repro/internal/sim
go test -run '^$' -fuzz FuzzValidateVsReference -fuzztime 5s repro/internal/task
go test -run '^$' -fuzz FuzzParseRoundTrip -fuzztime 5s repro/internal/taskio
go test -run '^$' -fuzz FuzzProcStateRemove -fuzztime 5s repro/internal/rta
go test -run '^$' -fuzz FuzzBatchVsScalarRTA -fuzztime 5s repro/internal/rta
go test -run '^$' -fuzz FuzzBoundValueScratch -fuzztime 5s repro/internal/bounds
go test -run '^$' -fuzz FuzzPUBSound -fuzztime 5s repro/internal/bounds
go test -run '^$' -fuzz FuzzHanTyanVsReference -fuzztime 5s repro/internal/bounds
go test -run '^$' -fuzz FuzzJournalReplay -fuzztime 5s repro/internal/admit
go test -run '^$' -fuzz FuzzEvidenceVsProbeRTA -fuzztime 5s repro/internal/admit
go test -run '^$' -fuzz FuzzResultJSON -fuzztime 5s repro/internal/admit
go test -run '^$' -fuzz FuzzGlobalSimVsReference -fuzztime 5s repro/internal/global
go test -run '^$' -fuzz FuzzMaxAdditionalDemand -fuzztime 5s repro/internal/edfa
go test -run '^$' -fuzz FuzzSchedulableInterval -fuzztime 5s repro/internal/edfa
go test -run '^$' -fuzz FuzzEDFTSSplitVsReference -fuzztime 5s repro/internal/partition
go test -run '^$' -fuzz FuzzEDFTSTerminates -fuzztime 5s repro/internal/partition

echo "== paranoid quick table (full invariant re-validation of every partitioning) =="
go run ./cmd/experiments -run acceptance-general -quick -sets 50 -paranoid -q > /dev/null

echo "== bench smoke (one iteration per benchmark) =="
go test -run '^$' -bench=. -benchtime=1x ./... > /dev/null

echo "== telemetry smoke (run-event log must pass strict schema validation) =="
events_log=$(mktemp /tmp/ci-events.XXXXXX.jsonl)
go run ./cmd/experiments -run acceptance-general -quick -sets 16 -q -events "$events_log" > /dev/null
go run ./cmd/perfdiff -validate-events "$events_log"
rm -f "$events_log"

echo "== explain replay golden (fixed recipe must render a byte-identical report) =="
# Exit 1 is the expected verdict here — the fixture recipe replays a sample
# RM-TS rejects; any other status (crash, usage error) fails the gate.
explain_out=$(mktemp /tmp/ci-explain.XXXXXX.txt)
explain_recipe='repro: experiment=acceptance-general point=3 sample=0 base-seed=1871513160099489213 sample-seed=1871513160099489213'
explain_status=0
go run ./cmd/explain -recipe "$explain_recipe" -quick -algo rm-ts > "$explain_out" || explain_status=$?
[ "$explain_status" -eq 1 ]
cmp "$explain_out" cmd/explain/testdata/recipe_rmts.golden
rm -f "$explain_out"

echo "== CLI vocabulary (one algorithm/bound registry behind every command) =="
# Every command resolves -algo through partition.Lookup: an unknown name is
# a usage error (exit 2) everywhere, every listed name runs, and partition
# and simulate build the same RM-TS (the fixture separates RM-TS under the
# best bound from the L&L default). schedtest rejects -m 0 as usage.
cli_dir=$(mktemp -d /tmp/ci-cli.XXXXXX)
cli_set=cmd/partition/testdata/harmonic3.txt
for c in partition simulate explain schedtest; do
    go build -o "$cli_dir/$c" "./cmd/$c"
done
for c in partition simulate explain; do
    cli_status=0
    "$cli_dir/$c" -set "$cli_set" -m 2 -algo nope > /dev/null 2>&1 || cli_status=$?
    [ "$cli_status" -eq 2 ] || { echo "$c -algo nope exited $cli_status, want 2" >&2; exit 1; }
done
cli_names=$("$cli_dir/partition" -h 2>&1 | sed -n 's/^.*algorithm: \(.*\) (default.*$/\1/p' | tr -d ',')
[ -n "$cli_names" ]
for name in $cli_names; do
    cli_status=0
    "$cli_dir/partition" -set "$cli_set" -m 2 -algo "$name" -q > /dev/null 2>&1 || cli_status=$?
    [ "$cli_status" -le 1 ] || { echo "partition -algo $name exited $cli_status" >&2; exit 1; }
done
"$cli_dir/partition" -set "$cli_set" -m 2 -algo rm-ts | grep '^P[0-9]* (U=' > "$cli_dir/partition.plan"
"$cli_dir/simulate" -set "$cli_set" -m 2 -algo rm-ts | grep '^P[0-9]* (U=' > "$cli_dir/simulate.plan"
[ -s "$cli_dir/partition.plan" ]
cmp "$cli_dir/partition.plan" "$cli_dir/simulate.plan"
cli_status=0
"$cli_dir/schedtest" -set "$cli_set" -m 0 > /dev/null 2>&1 || cli_status=$?
[ "$cli_status" -eq 2 ] || { echo "schedtest -m 0 exited $cli_status, want 2" >&2; exit 1; }
rm -rf "$cli_dir"

echo "== admitd smoke (boot, admit→remove→re-admit cycle, load run, graceful stop) =="
# Under set -e a failing -check, -scrape or digest step exits at once; the
# trap then stops the background daemon it would otherwise orphan. It also
# removes the smoke's temp files, on success too. A daemon stopped on
# purpose clears admitd_pid, so the trap never signals a recycled pid.
admitd_pid= admitd_bin= admitd_addr= admitd_access= admitd_prom= admitd_data=
cleanup_admitd() {
    if [ -n "$admitd_pid" ]; then
        kill -KILL "$admitd_pid" 2>/dev/null || true
        wait "$admitd_pid" 2>/dev/null || true
    fi
    for f in "$admitd_bin" "$admitd_addr" "$admitd_access" "$admitd_prom" "$admitd_data" \
        /tmp/ci-canon-before.txt /tmp/ci-canon-after.txt; do
        [ -z "$f" ] || rm -rf "$f"
    done
}
trap cleanup_admitd EXIT
admitd_bin=$(mktemp /tmp/ci-admitd.XXXXXX)
admitd_addr=$(mktemp /tmp/ci-admitd-addr.XXXXXX)
admitd_access=$(mktemp /tmp/ci-admitd-access.XXXXXX.jsonl)
admitd_prom=$(mktemp /tmp/ci-admitd-prom.XXXXXX.txt)
rm -f "$admitd_addr" "$admitd_access"
go build -o "$admitd_bin" ./cmd/admitd
"$admitd_bin" -listen 127.0.0.1:0 -addr-file "$admitd_addr" -q \
    -access-log "$admitd_access" -slow-ms 0 &
admitd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$admitd_addr" ] && break
    sleep 0.1
done
[ -s "$admitd_addr" ]
# The -check client verifies /healthz, the endpoint index, a full
# admit→reject→remove→re-admit cycle with a typed rejection, a sustained
# admit/remove load over HTTP, request-ID echoing, and both /metrics
# exposition formats plus /debug/requests.
"$admitd_bin" -check "$(cat "$admitd_addr")" -check-load 1000

echo "== metrics lint (Prometheus exposition + access-log JSONL must pass strict validation) =="
# Scrape the live daemon's Prometheus exposition and grammar-check it; then
# stop the daemon and schema-check the access log it wrote — the same
# validators a downstream scraper/shipper would rely on.
"$admitd_bin" -scrape "$(cat "$admitd_addr")" > "$admitd_prom"
go run ./cmd/perfdiff -validate-prom "$admitd_prom"
grep -q '^# TYPE admit_http_admit_latency_us histogram$' "$admitd_prom"
grep -q '^# TYPE admit_journal_fsync_us histogram$' "$admitd_prom"
grep -q '^# TYPE admit_gate_queue_depth gauge$' "$admitd_prom"
grep -q '^# TYPE partition_online_util_skips counter$' "$admitd_prom"
kill -TERM "$admitd_pid"
wait "$admitd_pid"
admitd_pid=
go run ./cmd/perfdiff -validate-access-log "$admitd_access"

echo "== admitd crash-recovery smoke (churn, SIGKILL, restart, digest compare) =="
# Boot journaled (fsync=always: every acknowledged op durable), drive a
# seeded churn, digest the canonical state, SIGKILL the daemon (no final
# snapshot — recovery must come from the write-ahead log), restart on the
# same directory and require a byte-identical digest.
admitd_data=$(mktemp -d /tmp/ci-admitd-data.XXXXXX)
rm -f "$admitd_addr"
"$admitd_bin" -listen 127.0.0.1:0 -addr-file "$admitd_addr" -q \
    -data "$admitd_data" -fsync always &
admitd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$admitd_addr" ] && break
    sleep 0.1
done
[ -s "$admitd_addr" ]
# The address file appears before recovery finishes and the ready guard
# answers 503 until it does, so wait for the first successful digest.
for _ in $(seq 1 100); do
    "$admitd_bin" -churn "$(cat "$admitd_addr")" -churn-ops 0 2>/dev/null > /dev/null && break
    sleep 0.1
done
"$admitd_bin" -churn "$(cat "$admitd_addr")" -churn-ops 400 -churn-seed 42 \
    2>/dev/null > /tmp/ci-canon-before.txt
kill -KILL "$admitd_pid"
wait "$admitd_pid" 2>/dev/null || true
admitd_pid=
rm -f "$admitd_addr"
"$admitd_bin" -listen 127.0.0.1:0 -addr-file "$admitd_addr" -q \
    -data "$admitd_data" -fsync always &
admitd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$admitd_addr" ] && break
    sleep 0.1
done
[ -s "$admitd_addr" ]
canon_ok=0
for _ in $(seq 1 100); do
    if "$admitd_bin" -churn "$(cat "$admitd_addr")" -churn-ops 0 \
        2>/dev/null > /tmp/ci-canon-after.txt; then
        canon_ok=1
        break
    fi
    sleep 0.1
done
[ "$canon_ok" -eq 1 ]
cmp /tmp/ci-canon-before.txt /tmp/ci-canon-after.txt
kill -TERM "$admitd_pid"
wait "$admitd_pid"
admitd_pid=

echo "== hot-path bench JSON (BENCH_hotpath.json) =="
baseline=$(mktemp /tmp/ci-bench-baseline.XXXXXX.json)
cp BENCH_hotpath.json "$baseline"
go test -run TestBenchHotpathJSON -benchjson=BENCH_hotpath.json .

echo "== perf-regression gate (new record vs committed baseline) =="
# Timing and bytes are noisy on shared CI hardware, so ns/op and B/op only
# warn; allocs/op and the domain metrics (rta-iters/op, splits/op, ...) are
# deterministic for the fixed bench seeds and gate hard, except the
# cheap-path counters (warm-starts/op, prefilter-hits/op), reported ungated.
# The absolute ns/op ceilings (perfdiff's nsCeilings) gate hard on the new
# record whatever -warn says.
go run ./cmd/perfdiff -warn 'ns/op,B/op' -allocs-tol 0.25 -extra-tol 0.25 "$baseline" BENCH_hotpath.json
rm -f "$baseline"

echo "CI gate passed."
