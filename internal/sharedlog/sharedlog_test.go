package sharedlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
)

func service(t *testing.T, batchSize int) *Service {
	t.Helper()
	svc, _ := serviceOn(t, batchSize)
	return svc
}

// serviceOn is service with the network it runs on, for fault injection.
func serviceOn(t *testing.T, batchSize int) (*Service, *cluster.Network) {
	t.Helper()
	net := cluster.NewNetwork(cluster.ZeroLink{})
	svc := New(Config{Net: net, NodeBase: 1000, BatchSize: batchSize})
	t.Cleanup(func() {
		svc.Stop()
		net.Close()
	})
	return svc, net
}

func readBatches(t *testing.T, c *Consumer, records int, timeout time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.After(timeout)
	for len(out) < records {
		select {
		case b, ok := <-c.Batches():
			if !ok {
				t.Fatalf("consumer closed at %d records", len(out))
			}
			out = append(out, b.Records...)
		case <-deadline:
			t.Fatalf("timeout with %d/%d records", len(out), records)
		}
	}
	return out
}

func TestAppendAndConsume(t *testing.T) {
	svc := service(t, 10)
	c := svc.Subscribe(1)
	defer c.Close()
	// Append promises acceptance, not order: on a fresh service the first
	// record can be accepted by an orderer that loses it, and the Resend
	// lap sequences it behind the next. A warm-up record delivered first
	// means a leader has committed, and the sequence below starts on it.
	if err := svc.Append([]byte("warm-up")); err != nil {
		t.Fatal(err)
	}
	if r := readBatches(t, c, 1, 10*time.Second); len(r) != 1 || string(r[0]) != "warm-up" {
		t.Fatalf("warm-up delivered as %q", r)
	}
	const total = 25
	for i := 0; i < total; i++ {
		if err := svc.Append([]byte(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	records := readBatches(t, c, total, 10*time.Second)
	for i, r := range records {
		if string(r) != fmt.Sprintf("r-%d", i) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
}

func TestMultipleConsumersSeeSameOrder(t *testing.T) {
	svc := service(t, 5)
	c1 := svc.Subscribe(1)
	defer c1.Close()
	c2 := svc.Subscribe(1)
	defer c2.Close()
	const total = 20
	for i := 0; i < total; i++ {
		if err := svc.Append([]byte(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r1 := readBatches(t, c1, total, 10*time.Second)
	r2 := readBatches(t, c2, total, 10*time.Second)
	for i := range r1 {
		if string(r1[i]) != string(r2[i]) {
			t.Fatalf("consumers disagree at %d: %q vs %q", i, r1[i], r2[i])
		}
	}
}

// warmUp appends one record and waits until the service has sequenced it.
// Append promises acceptance, not order: a fresh service's first record
// may be accepted by an orderer that loses it in a startup election, and
// the Resend lap then sequences it after later ones. A test of where a
// sequence starts lets that settle on a record of its own first.
func warmUp(t *testing.T, svc *Service) {
	t.Helper()
	if err := svc.Append([]byte("warm-up")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Appended() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the warm-up record was never sequenced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLateSubscriberReplaysFromStart(t *testing.T) {
	svc := service(t, 5)
	warmUp(t, svc)
	const total = 1 + 15
	for i := 1; i < total; i++ {
		if err := svc.Append([]byte(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for ordering to finish before subscribing.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Appended() < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c := svc.Subscribe(1)
	defer c.Close()
	records := readBatches(t, c, total, 10*time.Second)
	if string(records[0]) != "warm-up" {
		t.Fatalf("replay started at %q", records[0])
	}
}

func TestSubscribeFromOffset(t *testing.T) {
	svc := service(t, 1) // one record per batch → batch seq == record index+1
	warmUp(t, svc)
	const total = 1 + 10
	for i := 1; i < total; i++ {
		if err := svc.Append([]byte(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Appended() < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	all := svc.Subscribe(1)
	defer all.Close()
	log := readBatches(t, all, total, 10*time.Second)
	const from = 6
	c := svc.Subscribe(from)
	defer c.Close()
	records := readBatches(t, c, total-from+1, 10*time.Second)
	if !slices.EqualFunc(records, log[from-1:], bytes.Equal) {
		t.Fatalf("offset subscribe from %d read %q, the log from there is %q", from, records, log[from-1:])
	}
}

func TestBatchTimeoutFlushesPartialBatch(t *testing.T) {
	svc := service(t, 1000) // batch size never reached
	c := svc.Subscribe(1)
	defer c.Close()
	if err := svc.Append([]byte("lonely")); err != nil {
		t.Fatal(err)
	}
	records := readBatches(t, c, 1, 10*time.Second)
	if string(records[0]) != "lonely" {
		t.Fatalf("got %q", records[0])
	}
}

func TestStopClosesConsumers(t *testing.T) {
	net := cluster.NewNetwork(cluster.ZeroLink{})
	defer net.Close()
	svc := New(Config{Net: net, NodeBase: 2000})
	c := svc.Subscribe(1)
	svc.Stop()
	select {
	case _, ok := <-c.Batches():
		if ok {
			// Drain any final batch; channel must close eventually.
			for range c.Batches() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer channel never closed after Stop")
	}
	if err := svc.Append([]byte("late")); err == nil {
		t.Fatal("Append after Stop should fail")
	}
}

// TestCloseDetachesTheConsumer: a closed consumer leaves the service's
// list, so a hundred subscribe/close cycles — a crashed replica's, or a
// recovery rehearsal's — leave only the live consumers for each cut to
// notify, and the live one still receives every batch.
func TestCloseDetachesTheConsumer(t *testing.T) {
	svc := service(t, 1)
	live := svc.Subscribe(1)
	defer live.Close()
	const total = 100
	for i := 0; i < total; i++ {
		svc.Subscribe(1).Close()
		if err := svc.Append([]byte(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	svc.mu.Lock()
	consumers := slices.Clone(svc.consumers)
	svc.mu.Unlock()
	if len(consumers) != 1 || consumers[0] != live {
		t.Fatalf("%d consumers attached after %d subscribe/close cycles, want only the live one", len(consumers), total)
	}
	records := readBatches(t, live, total, 10*time.Second)
	got := make(map[string]bool, total)
	for _, r := range records {
		got[string(r)] = true
	}
	for i := 0; i < total; i++ {
		if !got[fmt.Sprintf("r-%d", i)] {
			t.Fatalf("the live consumer never received r-%d (%d records)", i, len(records))
		}
	}
}

// TestHighVolumeAppendDoesNotWedge regression-tests the follower-drain
// bug: only orderer 0's committed stream is consumed as the total order,
// and before the service drained the other replicas' identical streams, a
// follower wedged once its commit buffer (4096 entries) filled — it
// stopped reading its inbox, the leader blocked sending to it, and every
// subsequent append stalled, permanently. Pushing well past that
// threshold must keep delivering. The producer paces itself against
// delivery (a closed-loop client's natural backpressure) so the test
// exercises the drain bug, not the network-layer flow-control limits of
// an unbounded burst; pre-fix, delivery stalls for good just past 4096
// records no matter the pacing, so the deadline still trips.
func TestHighVolumeAppendDoesNotWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("high-volume append test")
	}
	svc := service(t, 100)
	c := svc.Subscribe(1)
	const records = 6_000 // past the 4096 entries at which a follower once wedged, + slack
	delivered := make(chan int, 1)
	go func() {
		n := 0
		for b := range c.Batches() {
			n += len(b.Records)
			select {
			case <-delivered:
			default:
			}
			delivered <- n
			if n >= records {
				return
			}
		}
	}()
	deadline := time.Now().Add(120 * time.Second)
	seen := 0
	for i := 0; i < records; i++ {
		if err := svc.Append([]byte(fmt.Sprintf("r%05d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		// Keep at most ~1000 records in flight.
		for i-seen > 1000 {
			select {
			case seen = <-delivered:
			case <-time.After(time.Until(deadline)):
				t.Fatalf("wedged at %d appended / %d delivered — follower commit streams not drained?", i, seen)
			}
		}
	}
	for seen < records {
		select {
		case seen = <-delivered:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("delivered %d/%d records before deadline", seen, records)
		}
	}
}

// TestUnpacedBurstAppendDoesNotWedge regression-tests the network-layer
// flow-control gap left open by the follower-drain fix above: with an
// unbounded burst — no pacing at all — a follower's inbox eventually
// fills, and Endpoint.Send used to block the leader inside its own raft
// mutex, wedging the whole ordering service. The bounded send path now
// fails fast with backpressure instead (Append absorbs it through its
// retry loop), so a full-speed burst far past every buffer must still
// land every accepted record. The pre-fix symptom is a permanent stall,
// so the deadline trips.
func TestUnpacedBurstAppendDoesNotWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("high-volume burst test")
	}
	svc := service(t, 100)
	c := svc.Subscribe(1)
	const records = 10_000 // past the 4096-entry wedge above and the orderers' inbox (8192)
	deadline := time.Now().Add(120 * time.Second)
	for i := 0; i < records; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("burst wedged at append %d — send path blocking?", i)
		}
		if err := svc.Append([]byte(fmt.Sprintf("b%05d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	seen := 0
	for seen < records {
		select {
		case b, ok := <-c.Batches():
			if !ok {
				t.Fatalf("consumer closed at %d/%d records", seen, records)
			}
			seen += len(b.Records)
		case <-time.After(time.Until(deadline)):
			t.Fatalf("delivered %d/%d records before deadline", seen, records)
		}
	}
}

// waitUntil polls cond every 2 ms until it holds or timeout passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// leader waits for an orderer other than the excluded ones to lead and
// returns its index.
func leader(t *testing.T, svc *Service, exclude ...int) int {
	t.Helper()
	at := -1
	waitUntil(t, 10*time.Second, "an orderer to lead", func() bool {
		for i, o := range svc.orderers {
			if !slices.Contains(exclude, i) && o.IsLeader() {
				at = i
				return true
			}
		}
		return false
	})
	return at
}

// isolate cuts orderer i off until the other orderers elect a leader
// among themselves, then reconnects it.
func isolate(t *testing.T, svc *Service, net *cluster.Network, i int) {
	t.Helper()
	id := svc.cfg.NodeBase + cluster.NodeID(i)
	net.Crash(id)
	leader(t, svc, i)
	net.Restart(id)
}

// resends returns the service's re-proposal and dropped-copy counters.
func resends(svc *Service) (resent, copies uint64) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.resent.Load(), svc.copies
}

// expectNoMore fails if c delivers another batch within three resend laps.
func expectNoMore(t *testing.T, c *Consumer) {
	t.Helper()
	select {
	case b := <-c.Batches():
		t.Fatalf("unexpected batch %d: %q", b.Seq, b.Records)
	case <-time.After(3 * consensus.Lap):
	}
}

// TestDeliveryDoesNotDependOnOrdererZero: with orderer 0 cut off after the
// first election, an appended record is still delivered — whichever
// orderer's stream commits it first carries the total order.
func TestDeliveryDoesNotDependOnOrdererZero(t *testing.T) {
	svc, net := serviceOn(t, 1)
	c := svc.Subscribe(1)
	defer c.Close()
	leader(t, svc)
	net.Crash(svc.cfg.NodeBase)
	if err := svc.Append([]byte("without orderer 0")); err != nil {
		t.Fatal(err)
	}
	if got := readBatches(t, c, 1, 10*time.Second); string(got[0]) != "without orderer 0" {
		t.Fatalf("got %q", got[0])
	}
}

// TestBatchTimerDoesNotSkip: each firing of the batch timer with records
// pending cuts exactly one batch of all of them, an idle firing cuts
// nothing, and the firing after an idle one still cuts. (A timer that cut
// only once BatchTimeout had passed since the last cut, checked on a ticker
// of the same period, missed that instant by microseconds about half the
// time and cut a period later.) The test fires the timer by hand, so the
// host's scheduler has no part in it.
func TestBatchTimerDoesNotSkip(t *testing.T) {
	ticks := make(chan time.Time)
	testTicks = ticks
	net := cluster.NewNetwork(cluster.ZeroLink{})
	// Never cut on size, and a period no firing here waits out: a timer
	// that asks how long it has been since the last cut never cuts.
	svc := New(Config{Net: net, NodeBase: 1000, BatchSize: 1000, BatchTimeout: time.Hour})
	testTicks = nil
	t.Cleanup(func() {
		svc.Stop()
		net.Close()
	})
	c := svc.Subscribe(1)
	defer c.Close()

	var appended, seq uint64
	// Records appended before each firing; 0 is an idle firing.
	for round, records := range []int{1, 3, 0, 2, 0, 0, 5, 1, 0, 1} {
		var want []string
		for i := 0; i < records; i++ {
			want = append(want, fmt.Sprintf("r-%d", appended))
			if err := svc.Append([]byte(want[i])); err != nil {
				t.Fatal(err)
			}
			appended++
		}
		// Append returns once an orderer accepted the record; it is
		// pending once the sequencer has taken it.
		deadline := time.Now().Add(10 * time.Second)
		for svc.Appended() < appended {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d records sequenced", round, svc.Appended(), appended)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case ticks <- time.Now():
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the service never took the firing", round)
		}
		if records == 0 {
			// The next cut's sequence number shows whether this one cut.
			continue
		}
		select {
		case b := <-c.Batches():
			seq++
			if b.Seq != seq {
				t.Fatalf("round %d cut batch %d, want %d: an earlier firing cut more than its one batch", round, b.Seq, seq)
			}
			var got []string
			for _, r := range b.Records {
				got = append(got, string(r))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d cut %q, want the %d pending records %q", round, got, records, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a firing with %d records pending cut nothing", round, records)
		}
	}
}

// batchList reads whole batches from c until they hold records records.
func batchList(t *testing.T, c *Consumer, records int, timeout time.Duration) []Batch {
	t.Helper()
	var out []Batch
	deadline := time.After(timeout)
	for n := 0; n < records; {
		select {
		case b, ok := <-c.Batches():
			if !ok {
				t.Fatalf("consumer closed at %d records", n)
			}
			out = append(out, b)
			n += len(b.Records)
		case <-deadline:
			t.Fatalf("timeout with %d/%d records", n, records)
		}
	}
	return out
}

// TestConsumersAgreeAcrossLeaderChange: three consumers see identical
// batch sequences holding every appended record exactly once, while the
// leading orderer is cut off mid-stream and a new one takes over.
func TestConsumersAgreeAcrossLeaderChange(t *testing.T) {
	svc, net := serviceOn(t, 7)
	var cs []*Consumer
	for range 3 {
		c := svc.Subscribe(1)
		defer c.Close()
		cs = append(cs, c)
	}
	const total = 200
	appended := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := svc.Append([]byte(fmt.Sprintf("r-%d", i))); err != nil {
				appended <- err
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
		appended <- nil
	}()
	isolate(t, svc, net, leader(t, svc))
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	ref := batchList(t, cs[0], total, 10*time.Second)
	seen := map[string]int{}
	for _, b := range ref {
		for _, r := range b.Records {
			seen[string(r)]++
		}
	}
	for i := 0; i < total; i++ {
		if n := seen[fmt.Sprintf("r-%d", i)]; n != 1 {
			t.Fatalf("record r-%d delivered %d times", i, n)
		}
	}
	for k, c := range cs[1:] {
		got := batchList(t, c, total, 10*time.Second)
		if len(got) != len(ref) {
			t.Fatalf("consumer %d saw %d batches, consumer 0 %d", k+1, len(got), len(ref))
		}
		for j := range ref {
			if got[j].Seq != ref[j].Seq || !slices.EqualFunc(got[j].Records, ref[j].Records, func(a, b []byte) bool { return string(a) == string(b) }) {
				t.Fatalf("consumer %d batch %d differs: %q vs %q", k+1, j, got[j].Records, ref[j].Records)
			}
		}
	}
	expectNoMore(t, cs[0])
}

// TestRecordLostToLeaderChangeIsResentOnce: the leader is cut off, then
// accepts a record it can never replicate; the other two orderers elect a
// leader and the old one returns, truncating the record from its log. The
// service proposes the record again after a lap, and it is delivered
// exactly once.
func TestRecordLostToLeaderChangeIsResentOnce(t *testing.T) {
	svc, net := serviceOn(t, 1)
	c := svc.Subscribe(1)
	defer c.Close()
	if err := svc.Append([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	readBatches(t, c, 1, 10*time.Second)
	old := leader(t, svc)
	svc.lead.Store(int32(old))
	id := svc.cfg.NodeBase + cluster.NodeID(old)
	net.Crash(id)
	if err := svc.Append([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	leader(t, svc, old)
	net.Restart(id)
	if got := readBatches(t, c, 1, 10*consensus.Lap); string(got[0]) != "lost" {
		t.Fatalf("got %q", got[0])
	}
	expectNoMore(t, c)
	if resent, _ := resends(svc); resent == 0 {
		t.Fatal("delivered without a re-proposal: the record was never lost")
	}
}

// TestSameBytesAreDistinctRecords: the service dedupes by the sequence
// number it assigns, never by content, so a payload appended n times is n
// records.
func TestSameBytesAreDistinctRecords(t *testing.T) {
	svc := service(t, 50)
	c := svc.Subscribe(1)
	defer c.Close()
	record := []byte{0, 0, 0, 0, 0, 0, 0, 1}
	const total = 500
	for i := 0; i < total; i++ {
		if err := svc.Append(record); err != nil {
			t.Fatal(err)
		}
	}
	readBatches(t, c, total, 10*time.Second)
	expectNoMore(t, c)
	if n := svc.Appended(); n != total {
		t.Fatalf("Appended() = %d, want %d", n, total)
	}
}

// TestRefusedRecordIsForgotten: before the first election no orderer
// knows a leader, so AppendEntryBounded with no budget refuses; a refused record
// leaves the in-flight table — the mark passes it — and is never delivered.
func TestRefusedRecordIsForgotten(t *testing.T) {
	svc := service(t, 1)
	c := svc.Subscribe(1)
	defer c.Close()
	if svc.AppendEntryBounded(NewEntry(0), 0) == nil || svc.AppendEntryBounded(NewEntry(0), 0) == nil {
		t.Skip("an orderer was elected before the first append")
	}
	probe := make([]byte, consensus.Header)
	id := svc.flight.Issue(probe, struct{}{})
	svc.flight.Finish(id)
	if mark := binary.BigEndian.Uint64(probe[8:]); mark != id {
		t.Fatalf("mark %d below a fresh id %d: a refused record is still in flight", mark, id)
	}
	if err := svc.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if got := readBatches(t, c, 1, 10*time.Second); string(got[0]) != "kept" {
		t.Fatalf("first delivered record %q, want \"kept\"", got[0])
	}
	expectNoMore(t, c)
}

// TestCopyBehindLaterRecordsIsDropped: a raw copy of an already sequenced
// record — header and all, as a re-proposal racing a slow first copy
// leaves it — proposed straight to the leading orderer behind later records
// is dropped by the sequencer's window, and the record is delivered once.
func TestCopyBehindLaterRecordsIsDropped(t *testing.T) {
	svc := service(t, 1)
	c := svc.Subscribe(1)
	defer c.Close()
	// Each append waits for its delivery, so every later record's mark has
	// passed the first one's id.
	for _, r := range []string{"first", "second", "third"} {
		if err := svc.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
		readBatches(t, c, 1, 10*time.Second)
	}
	// A fresh service issues ids from 1, so "first" was id 1, mark 1.
	dup := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 1), 1)
	dup = append(dup, "first"...)
	waitUntil(t, 10*time.Second, "the leader to take the copy", func() bool {
		l := leader(t, svc)
		return svc.orderers[l].IsLeader() && svc.orderers[l].Propose(dup) == nil
	})
	if err := svc.Append([]byte("marker")); err != nil {
		t.Fatal(err)
	}
	if got := readBatches(t, c, 1, 10*time.Second); string(got[0]) != "marker" {
		t.Fatalf("delivered %q after the copy, want \"marker\"", got[0])
	}
	expectNoMore(t, c)
	// A record the lap re-proposed under load leaves copies of its own.
	if resent, copies := resends(svc); copies < 1 || copies > 1+resent {
		t.Fatalf("%d committed copies dropped with %d re-proposals, want the one proposed", copies, resent)
	}
}
