# Developer entry points. Each target is the exact command CI runs, so
# a green `make check` locally means a green CI lint+test matrix.

LINT_BIN := $(CURDIR)/bin/dichotomy-lint

.PHONY: build test race lint fuzz-smoke chaos-smoke bench-e2e loc fmt check

build:
	go build ./...

test:
	go test -timeout 10m ./...

# The CI race job runs this target itself, so there is one package list.
# The second line repeats the direct path's pending table — its unit tests
# and the concurrent duplicate on all four ledger systems — twenty times:
# Open, Resolve and the commit timeout interleave there. The third repeats
# the reuse of decoded blocks ten times: a block released while a depth-2
# pipeline still reads its views would race with the next decode into it.
# The fourth repeats the database side's fan-out ten times: calls started
# before any is waited, give-ups racing resolves, and a region held while
# the other secondaries commit. The fifth repeats the consensus loop's suite
# twenty times, for raft, PBFT and IBFT: a Propose racing Stop, a leader
# whose log nobody reads, and readers taking committed entries by index
# under the protocol's lock while it commits more. The sixth repeats the
# ledger replicas' one block commit twenty times: the root maintainer's
# worker hashes each block's delta while the committer stages the next
# block into the same reused block. The seventh repeats the order-execute
# ledgers' crash and recovery ten times: CatchUp records the recovery tip
# while the replica's loops are stopped, and the restarted decode stage
# reads it. The eighth repeats the shared log's sequencer ten times: it
# reads every orderer's log by index while the orderers commit, and moves
# the orderer it waits on. The ninth repeats the database side's restart
# ten times: a recovered member's apply loop reads its new consensus node
# from the index after its checkpoint while the leader re-replicates. The
# tenth repeats what the front door and the block decoder recycle twenty
# times: commit timeouts fire on the door's one timer while the sealer
# answers the same batches, each caller is answered once, a reused batch
# carries none of the batch before it, and interned names survive Reset
# and the table's cap. The eleventh repeats the paged consensus log twenty
# times: its equivalence with a plain slice, and raft's conflict
# truncations and catch-up across pages, where in-flight AppendEntries
# messages alias the pages a truncation copies or drops. The twelfth
# repeats what a Fabric peer reuses twenty times: the checkpoint worker
# encodes a delta job's values, the engine's own slices, while the
# committer applies later blocks over the same keys; one Validator serves
# block after block; and no sealed block's views outlive it, though the
# Validator and the Apply stage's sets are kept.
race:
	go test -race -count=1 -timeout 10m ./internal/ads/... ./internal/authstate/... ./internal/bench/... ./internal/chaos/... ./internal/cluster/... ./internal/consensus/... ./internal/contract/... ./internal/ingress/... ./internal/metrics/... ./internal/sharedlog/... ./internal/state/... ./internal/system/... ./internal/mvcc/... ./internal/pipeline/... ./internal/hybrid/... ./internal/recovery/... ./internal/storage/lsm/... ./internal/twopc/...
	go test -race -count=20 -timeout 10m -run 'TestPending|TestDirectDuplicateAttaches' ./internal/system/
	go test -race -count=10 -timeout 10m -run 'TestSealedBlockViewsAreHeldByNoOne|TestParallelPipelineReplicaConsistency' ./internal/system/ ./internal/system/fabric/
	go test -race -count=10 -timeout 10m -run 'TestSecondariesCommitConcurrently|TestCommit|TestReplicator' ./internal/system/ ./internal/system/tidb/
	go test -race -count=20 -timeout 10m -run 'TestLoop' ./internal/consensus/
	go test -race -count=20 -timeout 10m -run 'TestReplicaCommit' ./internal/system/
	go test -race -count=10 -timeout 10m -run 'TestCrashEquivalence(Quorum|Bigchain)|TestFailedRecovery' ./internal/system/ ./internal/system/quorum/
	go test -race -count=10 -timeout 10m -run 'TestDeliveryDoesNotDependOnOrdererZero|TestConsumersAgreeAcrossLeaderChange|TestBatchTimerDoesNotSkip' ./internal/sharedlog/
	go test -race -count=10 -timeout 10m -run 'TestGroupRecoverEqualsNeverCrashed|TestGroupCrashSkipsReplica' ./internal/system/
	go test -race -count=20 -timeout 10m -run 'TestTimeoutRacingSealAnswersOnce|TestTimeoutSkipsAnEntryResolvedWhileQueued|TestStaleWatchdogDoesNotClobberResubmission|TestResolvedTransactionIsCollectable|TestCloseStopsWatchdogs|TestBlockInterned|TestBlockInternPastTheCap|TestBlockResetZeroesViews' ./internal/ingress/ ./internal/txn/
	go test -race -count=20 -timeout 10m -run 'TestLogMatchesSliceReference|TestInFlightAppendKeepsItsEntries|TestFollowerCatchesUpAcrossPages' ./internal/consensus/ ./internal/consensus/raft/
	go test -race -count=20 -timeout 10m -run 'TestDeltaJobKeepsItsHeightAcrossOverwrites|TestValidatorReuseMatchesFresh|TestSealedBlockViewsAreHeldByNoOne' ./internal/recovery/ ./internal/pipeline/ ./internal/system/fabric/

# Identical to the CI dichotomy-lint step: build the analyzer suite and
# run it over every package through go vet's vettool protocol.
lint:
	go build -o $(LINT_BIN) ./cmd/dichotomy-lint
	go vet -vettool=$(LINT_BIN) ./...

# The CI fuzz-smoke job runs this target itself, so there is one target
# list: 30s each. For a real campaign raise -fuzztime or drop it entirely.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzTxUnmarshal$$' -fuzztime=30s ./internal/txn/
	go test -run '^$$' -fuzz '^FuzzBlockRoundTrip$$' -fuzztime=30s ./internal/txn/
	go test -run '^$$' -fuzz '^FuzzDeltaDecode$$' -fuzztime=30s ./internal/recovery/
	go test -run '^$$' -fuzz '^FuzzChainCutPoint$$' -fuzztime=30s ./internal/recovery/
	go test -run '^$$' -fuzz '^FuzzVerifyBatchMatchesSerial$$' -fuzztime=30s ./internal/cryptoutil/
	go test -run '^$$' -fuzz '^FuzzVerifyMatchesReference$$' -fuzztime=30s ./internal/cryptoutil/
	go test -run '^$$' -fuzz '^FuzzVerifyProof$$' -fuzztime=30s ./internal/ads/mpt/
	go test -run '^$$' -fuzz '^FuzzStubMatchesReference$$' -fuzztime=30s ./internal/contract/
	go test -run '^$$' -fuzz '^FuzzLexMatchesReference$$' -fuzztime=30s ./internal/system/tidb/
	go test -run '^$$' -fuzz '^FuzzRegionCmdRoundTrip$$' -fuzztime=30s ./internal/system/tidb/
	go test -run '^$$' -fuzz '^FuzzShardCmdRoundTrip$$' -fuzztime=30s ./internal/system/ahl/

# Chaos smoke, all under the race detector; the CI chaos-smoke job runs
# this target itself, so there is one command list. The fault injector's
# determinism units and PBFT liveness under sustained message loss run on
# fixed seeds. The seven chaos-equivalence tests, which keep open-loop load
# running through a crash *and* its recovery, seed from the clock and log
# the seed, and when their crashes land is wall-clock besides — so a
# failure is a rate, not a replay, and the database side's three, all on
# system.Group (< 1 s each), run ten times over to catch a one-in-ten. The
# shared log's two consumers run five times, and so do its two leader-change
# tests: both sides re-propose a lost command on the one Resend lap of
# consensus/once.go, one or two 100 ms laps after acceptance, so a run that
# takes seconds is a stall.
chaos-smoke:
	go test -race -count=1 -timeout 10m ./internal/chaos/...
	go test -race -count=1 -timeout 10m -run 'TestLivenessUnderSustainedDrops' ./internal/consensus/pbft/
	go test -race -count=1 -timeout 10m -run 'TestChaosEquivalence' ./internal/system/
	go test -race -count=10 -timeout 10m -run 'TestChaosEquivalence(TiDB|Spanner|Etcd)' ./internal/system/
	go test -race -count=5 -timeout 10m -run 'TestChaosEquivalence(Fabric|Veritas)' ./internal/system/
	go test -race -count=5 -timeout 10m -run 'TestConsumersAgreeAcrossLeaderChange|TestRecordLostToLeaderChangeIsResentOnce' ./internal/sharedlog/

# One run of a benchmark workload, exactly as the pipeline runs it
# (benchmark/README.md); allocs_per_tx and alloc_kb_per_tx repeat to
# within 1 % from run to run. fabric-update is where the ledger-side
# allocation claims are made, WORKLOAD=tidb-mixed the database-side ones.
WORKLOAD ?= fabric-update
bench-e2e:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed 1 --seconds 18 --trace 0

# The one size number ROADMAP tracks, by one definition: non-blank,
# non-comment lines of non-test Go under internal/ and cmd/, testdata
# excluded. PRs report it before → after instead of hand-counting.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l

fmt:
	gofmt -l -w .

check: build lint test
