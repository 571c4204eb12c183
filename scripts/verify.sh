#!/usr/bin/env bash
# Tier-1 verification: build, vet, race-test everything, then smoke each
# fuzz target briefly. CI and pre-commit both run this; keep it fast enough
# to run on every change (~2-3 minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race ./...

# The compute kernels promise bit-identical results at every pool size; run
# the packages that exercise that contract under the race detector at both
# one and four scheduler threads.
echo "== go test -race -cpu=1,4 (kernel parallelism) =="
go test -race -cpu=1,4 ./internal/parallel/ ./internal/tensor/ ./internal/exec/

# Crash-recovery and close/poll regression gates. go test -race ./... above
# already runs these; naming them keeps the acceptance bar explicit even if
# package filters change.
echo "== recovery & close/poll regression gates (-race) =="
go test -race -run '^TestRecoveryWorkerCrashBitIdentical$|^TestHeartbeatDetectorExpiresAndResumes$|^TestLoadCheckpointRestoresRegisteredStorage$' ./internal/distributed/
go test -race -run '^TestCloseMidTransferFailsFast$|^TestCloseMidStripedTransferFailsFast$|^TestClosePeerSeversThenRebuilds$' ./internal/rdma/
go test -race -run '^TestPurePollingBoundedSpin$|^TestPollBackoffPreservesFairness$' ./internal/exec/

# Landed-write park gates: a poll of a peer-written word parks on the
# device's landed-write signal instead of sleeping. No wakeup may be lost
# (a write between the sequence read and the park ends the park at once,
# also under a -race stress of concurrent bumps and parks), the executor
# reads the sequence before it polls, Abort/Close/ClosePeer release parked
# waiters, the poll-wait histogram records the measured park, a reader
# release wakes the replica's drain without a timer, and a lossless lossy
# round trip never retransmits — neither with a slow blast (NACKs pace from
# the last chunk arrival) nor run repeatedly (it used to flake).
echo "== landed-write park gates (-race) =="
go test -race -run '^TestWaitLandedNoLostWakeup$|^TestWaitLandedWakesOnEveryVerb$|^TestLossyNackWaitsWhileChunksLand$' ./internal/rdma/
go test -race -count=10 -run '^TestLandedSignalStress$' ./internal/rdma/
go test -race -count=20 -run '^TestLossyRoundTripNoLoss$' ./internal/rdma/
go test -race -run '^TestWorkerReadsLandedSeqBeforePoll$|^TestAbortWakesParkedWorker$|^TestPollWaitRecordsMeasuredPark$|^TestPollBackoffCurve$' ./internal/exec/
go test -race -run '^TestReleaseWakesDrainWithoutTimer$' ./internal/serve/

# Timer guard: in exec, rdma and serve a wait for a peer-written word parks
# on the landed-write signal, so a sleep or timer in their production files
# is allowed only where waiting on time is the point. Each entry is
# "file:line text".
echo "== timer guard (exec, rdma, serve) =="
timer_allow=(
	'internal/rdma/sleep.go:var sleep = time.Sleep'              # retryLoop backoff and fault-injection seam
	'internal/rdma/engine.go:sleep(busyBackoff)'                 # retryLoop backoff on busy QP slots
	'internal/rdma/engine.go:sleep(backoff)'                     # retryLoop backoff between attempts
	'internal/rdma/device.go:sleep(cf.Delay)'                    # fault injection: completion delay
	'internal/rdma/device.go:sleep(delay)'                       # fault injection: transfer and path delay
	'internal/rdma/landed.go:time.NewTimer(time.Hour)'           # the park's bound (pooled, Reset per park)
	'internal/rdma/rpc.go:time.NewTimer(timeout)'                # RPC call timeout
	'internal/exec/exec.go:time.Sleep(d)'                        # park fallback for an Env without the signal
	'internal/serve/frontend.go:time.NewTimer(f.cfg.BatchWait)' # the frontend's batching window
)
timer_bad=0
while IFS= read -r hit; do
	file=${hit%%:*}
	text=${hit#*:}
	text=${text#*:}
	allowed=0
	for entry in "${timer_allow[@]}"; do
		if [[ "$file" == "${entry%%:*}" && "$text" == *"${entry#*:}"* ]]; then
			allowed=1
			break
		fi
	done
	if [[ $allowed == 0 ]]; then
		echo "timer outside the allowlist: $hit"
		timer_bad=1
	fi
done < <(grep -nE 'time\.(Sleep|After|NewTimer|Tick)|(^|[^.A-Za-z_])sleep\(' \
	$(ls internal/exec/*.go internal/rdma/*.go internal/serve/*.go | grep -v '_test\.go$') || true)
if [[ $timer_bad != 0 ]]; then
	echo "verify: a poll must park on the landed-write signal (rdma.Device.WaitLanded), not sleep"
	exit 1
fi

# Observability gates: the Prometheus encoder golden file, the live obs
# endpoint, and the metrics/trace/step-books consistency suite (including
# its recovery-rebuild variant) must hold under the race detector.
echo "== observability & consistency gates (-race) =="
go test -race -run '^TestWritePromGolden$|^TestPromScrapeParsesAndIsConsistent$|^TestServerEndpoints$' ./internal/obs/
go test -race -run '^TestMetricsTraceConsistency$|^TestObsConsistencySurvivesRecovery$' ./internal/distributed/
go test -race -run '^TestHistogramConcurrentRecord$|^TestRecorderOverflowIsVisible$' ./internal/metrics/ ./internal/trace/

# Collective-plane gates: the comm package in full, topology parity (ring
# and tree must produce the PS plane's exact bits across worker counts and
# bucket geometries), and the ring under chaos — seeded faults retried to
# identical bits, a mid-all-reduce crash recovered bit-identically.
echo "== collective plane & topology parity gates (-race) =="
go test -race ./internal/comm/
go test -race -run '^TestTopologyParityMLP$|^TestTopologyParityWorkerSweep$|^TestSingleGradientModelTrainsAllTopologies$' ./internal/distributed/
go test -race -run '^TestRingChaosBitIdenticalUnderFaults$|^TestRecoveryRingCrashBitIdentical$' ./internal/distributed/

# Sharded-PS gates: shard/worker-sweep and hierarchical parity against the
# single-PS bits, plus the sharded plane under chaos and crash recovery.
echo "== sharded-PS parity & chaos gates (-race) =="
go test -race -run '^TestShardedPSParityShardWorkerSweep$|^TestShardedPSHierarchicalParity$|^TestShardedPSParityBucketSizes$' ./internal/distributed/
go test -race -run '^TestShardedPSChaosBitIdenticalUnderFaults$|^TestRecoveryShardedPSCrashBitIdentical$' ./internal/distributed/

# Pipelined-stripe gates: the copy-overlapped send path must stay
# bit-identical to the staged path, keep per-lane doorbell batching on the
# staged path, and heal injected drops by re-staging the same bytes.
echo "== pipelined stripe & doorbell batch gates (-race) =="
go test -race -run '^TestSendRetryFromParity$|^TestSendRetryDoorbellBatchesPerLane$|^TestSendRetryFromRecoversFromDrops$|^TestMemcpyBatchValidatesBeforePosting$' ./internal/rdma/

# Transfer engine gates: every payload protocol runs through one engine
# (internal/rdma/engine.go: chunk plan -> per-lane doorbell -> join ->
# commit word). Striped static and Dyn parity, the flag never before the
# payload under chaos, the pipelined copy path, the lossy round trip and
# its mid-loss abort, a failed transfer draining every posted chunk before
# it reports (static send and weight publication), one deadline per
# blocking call (Dyn fetch and lossy send), the one lane-count rule, and
# weight publication under drops and across a partition.
echo "== transfer engine gates (-race) =="
go test -race -run '^TestStripedStaticParity$|^TestStripedDynParity$|^TestStripedFlagNeverBeforePayload$|^TestStripedPartitionFailsTyped$' ./internal/rdma/
go test -race -run '^TestSendRetryFromParity$|^TestSendRetryFromRecoversFromDrops$|^TestStripedSendDrainsBeforeFailing$' ./internal/rdma/
go test -race -run '^TestLossyRoundTripNoLoss$|^TestLossySelectiveRetransmit$|^TestLossyCancelMidLoss$|^TestLossyStaleChunkDiscarded$' ./internal/rdma/
go test -race -run '^TestFetchRetryOneDeadline$|^TestLossySendOneDeadline$|^TestLaneCountRule$|^TestWriteRetryMoreLanesThanChunks$' ./internal/rdma/
go test -race -run '^TestLossyStepAbortThenRecover$|^TestStripeLaneCountRule$' ./internal/distributed/
go test -race -run '^TestPublishDrainsBeforeReturn$' ./internal/serve/
go test -race -run '^TestServingFleetPublishUnderDrops$|^TestServingFleetPublishPartitionFailsTyped$' ./internal/distributed/

# QP-scale & lossy-fabric gates: the 256-task netsim budget check (muxed
# wiring within explicit per-task QP state and setup-time budgets that
# all-pairs wiring blows), the 64-task real-bytes training run through the
# QP mux under the race detector, and the lossy-fabric recovery suite —
# seeded chunk drops healed bit-identically by per-tensor selective
# retransmit, a blackholed tensor failing typed and bounded, and a
# mid-loss step abort never leaking a retransmitted chunk into a later
# iteration.
echo "== QP-scale & lossy-fabric gates (-race) =="
go test -run '^TestScale256TaskQPBudgets$' ./internal/netsim/
go test -race -run '^Test64TaskMuxTrainingUnderRace$|^TestMuxTrainingParity$' ./internal/distributed/
go test -race -run '^TestLossyTrainingBitIdentical$|^TestLossyTensorBlackholeFailsTyped$|^TestLossyStepAbortThenRecover$' ./internal/distributed/
go test -race -run '^TestQPBusyRetriesDoNotBurnRetryBudget$' ./internal/rdma/

# Serving-plane gates: the zero-copy weight-publication protocol proven
# under the race detector. Staleness bound — no replica serves weights more
# than one version behind the trainer, bit-identical to the trainer's
# snapshot, under continuous publication and concurrent queries. Torn-read
# — a trainer crash mid-publication leaves every replica on the last
# complete version (the version word is written after the payload, so a
# partial bank is never observable). Overload-shed — the frontend's bounded
# queue sheds typed ErrOverloaded instead of queueing unboundedly. Plus the
# crash/readmission cycle through the lease detector, the QP-mux sever-race
# regression, the histogram torn-snapshot fixes, the netsim million-user
# model, and the trainer-flag validation matrix.
echo "== serving plane gates (-race) =="
go test -race -run '^TestStalenessBoundUnderLoad$|^TestPublishBitIdentical$|^TestTrainerCrashMidPublication$|^TestOverloadShed$|^TestPublisherBankHeldTimeout$|^TestReplicaRestartReadmission$' ./internal/serve/
go test -race -run '^TestServingFleetCrashRecovery$|^TestServingFleetOverload$' ./internal/distributed/
go test -race -run '^TestQPMuxSeverRace$' ./internal/rdma/
go test -race -run '^TestQuantileTornSnapshot$|^TestQuantileEdgeCases$|^TestMergeFamiliesUnion$' ./internal/metrics/
go test -run '^TestServeModelMillionUsers$|^TestServeStalenessThroughputTradeoff$' ./internal/netsim/
go test -race -run '^TestValidateFlags$' ./cmd/rdmadl-train/

# Fuzz smoke: each target gets a short budget. The engine accepts one
# -fuzz pattern per invocation, so loop explicitly.
FUZZTIME="${FUZZTIME:-5s}"
echo "== fuzz smoke (${FUZZTIME}/target) =="
go test -run=NONE -fuzz='^FuzzUnmarshalStaticSlotDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalDynSlotDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzDecodeDynMeta$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalStripeDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalCoalescedSlotDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalRetransmitDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalNackDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzTensorMessageUnmarshal$' -fuzztime="$FUZZTIME" ./internal/wire/
go test -run=NONE -fuzz='^FuzzDecodeBatch$' -fuzztime="$FUZZTIME" ./internal/wire/
go test -run=NONE -fuzz='^FuzzHistogramRecord$' -fuzztime="$FUZZTIME" ./internal/metrics/
go test -run=NONE -fuzz='^FuzzUnmarshalBucketDesc$' -fuzztime="$FUZZTIME" ./internal/comm/
go test -run=NONE -fuzz='^FuzzUnmarshalShardMap$' -fuzztime="$FUZZTIME" ./internal/comm/

echo "verify: OK"
