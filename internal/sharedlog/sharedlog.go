// Package sharedlog implements the shared-log replication approach of the
// paper's taxonomy: an ordering service with a small fixed set of orderer
// nodes (Fabric's Raft-based orderer, or a Kafka broker in Veritas and
// ChainifyDB) that sequences records into batches, which any number of
// consumers pull independently. Ordering is decoupled from state
// replication — the property the paper credits for shared logs' throughput
// staying flat as consumers scale, until producers saturate.
//
// The sequencer reads the total order out of the orderers' logs by raft
// index, keeping its own position: it waits on the orderer it takes for
// the leader, and at every wake and every batch-timer firing it takes the
// entries from its position on from each orderer, that one first. Raft
// safety makes every replica's entry at index i identical, so this is the
// order any single log gives, but it arrives when the leader commits — a
// follower learns of the commit a heartbeat later — and it does not depend
// on any one orderer staying reachable: the timer's reads find a new
// leader's entries, and the sequencer waits on it from then on.
//
// Batches are cut on size (BatchSize records pending) or by one timer,
// reset at every cut and at every firing, that cuts whatever is pending
// when it fires: a batch leaves BatchTimeout after the previous cut, never
// two periods later. Fabric's orderer starts its timer at the first
// envelope of a batch, but it cuts before consensus; here the cut is made
// from committed entries, so a record reaches the cutter one raft round
// after it was appended, and a timer started then would add BatchTimeout
// to that round instead of overlapping it.
//
// Every appended record is delivered exactly once, through the
// exactly-once primitive the database side's raft groups share
// (consensus/once.go). The service's Flight issues each record a request id
// and low-water mark, carried in the raft entry ahead of the record
// (consumers see the bare record), and holds it until the total order
// reaches it. A record accepted by a leader that is deposed before it
// replicates, or forwarded to one and dropped, is otherwise gone; the
// Flight's Resend lap proposes it again, to every orderer, one or two laps
// after an orderer accepted it, and the sequencer's Window passes on only
// the first committed copy of an id. Dedupe is by id, never by content:
// the same bytes appended twice are two records.
package sharedlog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/raft"
)

// Batch is one ordered batch of records handed to consumers.
type Batch struct {
	// Seq is the 1-based batch sequence number.
	Seq uint64
	// Records are the payloads in their final total order.
	Records [][]byte
}

// Config configures the ordering service.
type Config struct {
	// Orderers is the number of orderer replicas (the paper fixes 3).
	Orderers int
	// BatchSize cuts a batch when this many records accumulate. Default 100.
	BatchSize int
	// BatchTimeout cuts a non-empty batch this long after the previous
	// cut. Default 5ms.
	BatchTimeout time.Duration
	// Net is the cluster network the orderers attach to. Orderer node ids
	// are allocated from NodeBase upward.
	Net      *cluster.Network
	NodeBase cluster.NodeID
}

func (c Config) withDefaults() Config {
	if c.Orderers <= 0 {
		c.Orderers = 3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 5 * time.Millisecond
	}
	return c
}

// Service is a running ordering service.
type Service struct {
	cfg      Config
	orderers []*raft.Node
	// lead is one past the index of the orderer whose log was furthest
	// ahead at the sequencer's last read — the leader, which commits a
	// heartbeat before its followers — and 0 until an entry has committed.
	// Appends offer a record to the leader it knows of before the others.
	lead atomic.Int32

	flight     consensus.Flight[struct{}] // appended, not yet sequenced
	stopResend func()                     // ends the flight's Resend lap
	win        consensus.Window           // the sequencer's first-copy filter
	resent     atomic.Uint64              // records proposed again by the lap

	mu        sync.Mutex
	consumers []*Consumer
	batches   []Batch // retained log; consumers replay from any offset
	pending   [][]byte
	appended  uint64
	copies    uint64 // committed copies of an already sequenced id, dropped

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// testTicks, when a test sets it, stands in for the batch timer of the
// services New starts: each value run receives on it is one firing.
var testTicks chan time.Time

// New starts an ordering service on the given network.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	peers := make([]cluster.NodeID, cfg.Orderers)
	for i := range peers {
		peers[i] = cfg.NodeBase + cluster.NodeID(i)
	}
	s := &Service{
		cfg:    cfg,
		stopCh: make(chan struct{}),
	}
	for _, id := range peers {
		s.orderers = append(s.orderers, raft.New(raft.Config{
			ID:       id,
			Peers:    peers,
			Endpoint: cfg.Net.Register(id, 8192),
		}))
	}
	s.wg.Add(1)
	go s.run(testTicks)
	// A resend goes to every orderer, not through propose: an orderer cut
	// off while leading keeps believing it leads, accepts the copy and
	// loses it again, and the lead it would be offered to first is only
	// moved by a commit.
	s.stopResend = s.flight.Resend(func(entry []byte) bool {
		s.resent.Add(1)
		for _, o := range s.orderers {
			_ = o.Propose(entry)
		}
		return true
	})
	return s
}

// NewEntry returns an empty entry with room for a record of n bytes. A
// producer appends the record's encoding to it and hands it to AppendEntry
// or AppendEntryBounded: the orderers' logs then carry the very bytes it
// encoded, and consumers see them as the record.
func NewEntry(n int) []byte { return make([]byte, consensus.Header, consensus.Header+n) }

// Append submits a record for ordering. It retries through leader changes
// and returns once an orderer accepted the record; ordering completion is
// observed through consumer delivery. The record is copied into an entry;
// AppendEntry and AppendEntryBounded take one already encoded.
func (s *Service) Append(record []byte) error {
	return s.AppendEntry(append(NewEntry(len(record)), record...))
}

// AppendEntry is Append for an entry from NewEntry, whose record is
// entry[consensus.Header:]. The service owns entry from here on.
func (s *Service) AppendEntry(entry []byte) error {
	attempts := 0
	return s.offer(entry, func() (time.Duration, bool) {
		attempts++
		return time.Millisecond, attempts <= 5000
	})
}

// AppendEntryBounded submits an entry from NewEntry with a bounded
// exponential-backoff retry: unlike AppendEntry it gives up after roughly
// budget of accumulated waiting and returns the last error —
// cluster.ErrBackpressure from a full forwarding queue included — so a
// throttling caller can shed instead of stalling multi-second; a zero
// budget makes one pass over the orderers. The short retries still ride
// out leader elections, which resolve in tens of milliseconds here.
func (s *Service) AppendEntryBounded(entry []byte, budget time.Duration) error {
	backoff := time.Millisecond
	deadline := time.Now().Add(budget)
	return s.offer(entry, func() (time.Duration, bool) {
		wait := backoff
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
		return wait, time.Now().Before(deadline)
	})
}

// offer issues entry into the in-flight table and proposes it until an
// orderer accepts it; after each refused pass retry says how long to wait
// before the next, or to give up. A record reported as refused is finished,
// so the mark passes it, and it was in no orderer's log.
func (s *Service) offer(entry []byte, retry func() (time.Duration, bool)) error {
	id := s.flight.Issue(entry, struct{}{})
	for {
		err := s.propose(entry)
		if err == nil {
			s.flight.Accepted(id)
			return nil
		}
		wait, again := retry()
		if again && !errors.Is(err, consensus.ErrStopped) {
			select {
			case <-s.stopCh:
				err = consensus.ErrStopped
			case <-time.After(wait):
				continue
			}
		}
		s.flight.Finish(id)
		return err
	}
}

// propose offers entry to the leading orderer, then to the others, until
// one accepts it. Once an entry has committed, the leading orderer is the
// leader lead knows of: on a busy machine a follower's stream can deliver
// first, and a record offered to a follower is only forwarded, so the
// next one, offered to the leader, could pass it. Before that, orderer 0
// is asked first, and forwards to a leader it has heard from.
func (s *Service) propose(entry []byte) error {
	n := len(s.orderers)
	first := max(int(s.lead.Load())-1, 0)
	if l := s.orderers[first].Leader(); l >= 0 && s.lead.Load() > 0 {
		first = int(l - s.cfg.NodeBase)
	}
	var err error
	for k := range n {
		if err = s.orderers[(first+k)%n].Propose(entry); err == nil {
			return nil
		}
	}
	return err
}

// SetBatchSize adjusts the record count at which the service cuts a
// batch — the adaptive block-shape knob the ingress builder drives from
// arrival pressure. Values ≤ 0 are ignored.
func (s *Service) SetBatchSize(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.cfg.BatchSize = n
	s.mu.Unlock()
}

// Dropped sums the orderer endpoints' dropped-send counters — the
// consensus-side overload signal the ingress experiment reports next to
// admission sheds (sheds are intentional; growing drops are the wedge
// class the front door exists to prevent).
func (s *Service) Dropped() uint64 {
	var n uint64
	for _, o := range s.orderers {
		n += o.Dropped()
	}
	return n
}

// run takes the total order from the orderers' logs, cuts batches, and
// fans them out to consumers. The batch timer fires on ticks when they are
// given, a test's hand-driven clock.
func (s *Service) run(ticks <-chan time.Time) {
	defer s.wg.Done()
	next, lead := uint64(1), 0 // the raft index the order takes next; the orderer waited on
	var buf []consensus.Entry
	timer := time.NewTimer(s.cfg.BatchTimeout)
	defer timer.Stop()
	fire := cmp.Or(ticks, timer.C)
	for {
		fired := false
		select {
		case <-s.stopCh:
			return
		case <-s.orderers[lead].Notify():
		case <-fire:
			fired = true
			timer.Reset(s.cfg.BatchTimeout)
		}
		// Each log is gapless from index 1, so what an orderer holds from
		// next on is new, and the last one that holds any is furthest
		// ahead.
		s.mu.Lock()
		for k := range s.orderers {
			i := (lead + k) % len(s.orderers)
			if buf = s.orderers[i].Entries(next, buf[:0]); len(buf) > 0 {
				next = buf[len(buf)-1].Index + 1
				s.lead.Store(int32(i) + 1)
			}
			for _, e := range buf {
				s.sequenceLocked(e.Data)
				if len(s.pending) >= s.cfg.BatchSize {
					s.cutLocked()
					timer.Reset(s.cfg.BatchTimeout)
				}
			}
		}
		if fired && len(s.pending) > 0 {
			s.cutLocked()
		}
		s.mu.Unlock()
		lead = max(int(s.lead.Load())-1, 0)
	}
}

// sequenceLocked passes the record in a committed entry to the pending
// batch if the window admits it as the first copy of its id, and finishes
// the id. An entry too short to carry a header is the empty one a new raft
// leader commits its inherited tail with; it is no record.
func (s *Service) sequenceLocked(entry []byte) {
	if len(entry) < consensus.Header {
		return
	}
	id := binary.BigEndian.Uint64(entry)
	if !s.win.Admit(id, binary.BigEndian.Uint64(entry[8:])) {
		s.copies++
		return
	}
	s.flight.Finish(id)
	s.pending = append(s.pending, entry[consensus.Header:])
	s.appended++
}

func (s *Service) cutLocked() {
	batch := Batch{Seq: uint64(len(s.batches) + 1), Records: s.pending}
	s.pending = nil
	s.batches = append(s.batches, batch)
	for _, c := range s.consumers {
		c.notify()
	}
}

// Appended returns how many records have been sequenced.
func (s *Service) Appended() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Batches returns how many batches have been cut — the log's tip
// sequence number. The log retains every batch, so a consumer may
// subscribe anywhere at or below this and replay forward; that retained
// tail is the crash-recovery replay source for shared-log systems.
func (s *Service) Batches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.batches))
}

// Stop shuts the service and its orderers down and waits for the
// service's own goroutines.
func (s *Service) Stop() {
	s.stopOnce.Do(func() {
		s.stopResend()
		close(s.stopCh)
		for _, o := range s.orderers {
			o.Stop()
		}
		s.wg.Wait()
		s.mu.Lock()
		consumers := s.consumers
		s.consumers = nil
		s.mu.Unlock()
		for _, c := range consumers {
			c.Close()
		}
	})
}

// Subscribe attaches a consumer that receives every batch from the given
// sequence number (1 = from the start). Each consumer pulls independently,
// at its own pace — the decoupling that lets shared-log systems add
// consumers without affecting ordering throughput.
func (s *Service) Subscribe(fromSeq uint64) *Consumer {
	c := &Consumer{
		svc:    s,
		next:   max(fromSeq, 1),
		out:    make(chan Batch, 64),
		wake:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	s.mu.Lock()
	s.consumers = append(s.consumers, c)
	s.mu.Unlock()
	go c.pump()
	return c
}

// Consumer is one subscriber's cursor over the log.
type Consumer struct {
	svc  *Service
	next uint64
	out  chan Batch
	wake chan struct{}

	stopCh    chan struct{}
	closeOnce sync.Once
}

// Batches returns the channel of delivered batches, in order.
func (c *Consumer) Batches() <-chan Batch { return c.out }

// Next returns the next batch in order, or false once stop closes or the
// consumer is closed.
func (c *Consumer) Next(stop <-chan struct{}) (Batch, bool) {
	select {
	case b, ok := <-c.out:
		return b, ok
	case <-stop:
		return Batch{}, false
	}
}

// Close detaches the consumer: its pump stops, and later cuts no longer
// notify it.
func (c *Consumer) Close() {
	c.closeOnce.Do(func() {
		close(c.stopCh)
		s := c.svc
		s.mu.Lock()
		if i := slices.Index(s.consumers, c); i >= 0 {
			s.consumers = slices.Delete(s.consumers, i, i+1)
		}
		s.mu.Unlock()
	})
}

func (c *Consumer) notify() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *Consumer) pump() {
	defer close(c.out)
	for {
		c.svc.mu.Lock()
		var batch Batch
		have := c.next <= uint64(len(c.svc.batches))
		if have {
			batch = c.svc.batches[c.next-1]
		}
		c.svc.mu.Unlock()
		if have { // deliver everything available from the cursor first
			select {
			case c.out <- batch:
				c.next++
			case <-c.stopCh:
				return
			}
			continue
		}
		select {
		case <-c.wake:
		case <-c.stopCh:
			return
		case <-c.svc.stopCh:
			return
		}
	}
}
