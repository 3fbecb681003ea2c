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

// Loop is the driver Raft, PBFT and IBFT share: one goroutine feeds the
// protocol its clock ticks and inbox messages. The protocol keeps its
// committed entries and serves them by index (Node.Entries); it tells a
// waiting reader with Signal, which never blocks, so a reader that falls
// behind, or never reads, stalls nothing: the protocol keeps ticking,
// voting, heartbeating and accepting proposals.
type Loop struct {
	notify chan struct{} // holds one token once an entry has committed
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	compatOnce sync.Once
	compat     chan Entry // Committed's stream
}

// Start runs the loop: tick every tickInterval and handle each message of
// inbox, on one goroutine, until Stop or until the inbox closes. The loop
// must already be where tick and handle find it, since either may call
// Signal at once.
func (l *Loop) Start(inbox <-chan cluster.Envelope, tick func(), handle func(cluster.Envelope)) {
	l.notify = make(chan struct{}, 1)
	l.stop = make(chan struct{})
	l.wg.Add(1)
	go l.run(inbox, tick, handle)
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

// Signal tells the reader waiting on Notify that an entry has committed.
// It never blocks, and works after Stop: the channel is never closed.
func (l *Loop) Signal() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// Notify implements Node.Notify for the protocol.
func (l *Loop) Notify() <-chan struct{} { return l.notify }

// Committed implements Node.Committed for the protocol n: a goroutine,
// started on the first call, reads n's log from index 1 and sends every
// entry on the returned channel, which Stop closes. benchmark/layers.go is
// its one caller; once that reads Entries, this and Node.Committed go.
func (l *Loop) Committed(n Node) <-chan Entry {
	l.compatOnce.Do(func() {
		l.compat = make(chan Entry)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer close(l.compat)
			r := NewReader(n, 1)
			for e, ok := r.Next(l.stop); ok; e, ok = r.Next(l.stop) {
				select {
				case l.compat <- e:
				case <-l.stop:
					return
				}
			}
		}()
	})
	return l.compat
}

// Stopped reports whether Stop has been called.
func (l *Loop) Stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// Stop ends the loop's goroutines and returns once they have exited; the
// committed entries stay readable.
func (l *Loop) Stop() {
	l.once.Do(func() {
		// A Committed stream asked for after Stop is closed at once; one
		// asked for before has its goroutine counted by now.
		l.compatOnce.Do(func() {
			l.compat = make(chan Entry)
			close(l.compat)
		})
		close(l.stop)
		l.wg.Wait()
	})
}
