package consensus

import (
	"sync"
	"time"

	"dichotomy/internal/cluster"
)

// tickInterval is the clock granularity of every protocol's timers: raft's
// heartbeat and election timeouts, PBFT's view-change and retransmission
// timers, IBFT's round-change timer, all counted in ticks.
const tickInterval = 2 * time.Millisecond

// CommitBuffer is the capacity of a replica's commit channel. Past it,
// committed entries wait in the loop's delivery queue, which has no bound.
const CommitBuffer = 4096

// Loop is the driver Raft, PBFT and IBFT share. One goroutine feeds the
// protocol its clock ticks and inbox messages; a second sends committed
// entries on the commit channel. The protocol hands an entry over with
// Deliver under its own lock, and Deliver never blocks, so a reader that
// falls behind its stream stalls only that stream: the protocol keeps
// ticking, voting, heartbeating and accepting proposals.
type Loop struct {
	commit chan Entry
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	mu    sync.Mutex
	queue []Entry       // delivered, not yet sent on commit
	wake  chan struct{} // holds one token while queue may be non-empty
}

// Start runs the loop: tick every tickInterval and handle each message of
// inbox, on one goroutine, until Stop or until the inbox closes. The loop
// must already be where tick and handle find it, since either may call
// Deliver at once.
func (l *Loop) Start(inbox <-chan cluster.Envelope, tick func(), handle func(cluster.Envelope)) {
	l.commit = make(chan Entry, CommitBuffer)
	l.stop = make(chan struct{})
	l.wake = make(chan struct{}, 1)
	l.wg.Add(2)
	go l.run(inbox, tick, handle)
	go l.send()
}

func (l *Loop) run(inbox <-chan cluster.Envelope, tick func(), handle func(cluster.Envelope)) {
	defer l.wg.Done()
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
			tick()
		case env, ok := <-inbox:
			if !ok {
				return
			}
			handle(env)
		}
	}
}

// Deliver queues a committed entry for the commit channel. Entries leave in
// the order they are delivered. Deliver never blocks; after Stop the entry
// is never sent.
func (l *Loop) Deliver(e Entry) {
	l.mu.Lock()
	l.queue = append(l.queue, e)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// send moves the delivery queue onto the commit channel, holding no lock
// while it waits on the reader, and closes the channel on Stop: it is the
// channel's only sender.
func (l *Loop) send() {
	defer l.wg.Done()
	defer close(l.commit)
	var batch []Entry
	for {
		select {
		case <-l.stop:
			return
		case <-l.wake:
		}
		l.mu.Lock()
		batch, l.queue = l.queue, batch[:0]
		l.mu.Unlock()
		for _, e := range batch {
			select {
			case l.commit <- e:
			case <-l.stop:
				return
			}
		}
		// The spare keeps no payload alive once the reader has it.
		clear(batch)
	}
}

// Committed returns the channel of committed entries; Stop closes it.
func (l *Loop) Committed() <-chan Entry { return l.commit }

// Stopped reports whether Stop has been called.
func (l *Loop) Stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// Stop ends both goroutines and returns once they have exited and the
// commit channel is closed. Entries still queued are dropped.
func (l *Loop) Stop() {
	l.once.Do(func() {
		close(l.stop)
		l.wg.Wait()
	})
}
