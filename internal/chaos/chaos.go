// Package chaos is a deterministic, seeded fault-injection layer. It
// threads through the seams the repo already has rather than inventing
// new ones: message drop/delay at cluster.Endpoint.Send (via
// cluster.FaultHook), engine write failure and slow-fsync stalls via the
// storage-engine hook the systems expose, clock-skewed commit timeouts
// at the ingress front door, and scheduled node crashes driven through the
// systems' existing Crash*/Recover* lifecycles.
//
// Determinism contract: the fault *schedule* (Schedule) is a pure
// function of its arguments — equal seeds produce identical crash
// plans. Per-message and per-write draws come from one seeded generator
// guarded by a mutex, so a single-threaded caller sees a reproducible
// decision sequence; under concurrent load the draws are still from the
// seeded stream but their assignment to messages follows runtime
// interleaving, which is the strongest guarantee possible without
// serializing the system under test.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/cluster"
)

// ErrWriteFault is returned by a fault-wrapped storage engine in place
// of a successful mutation. Committer paths must surface it as an
// error, never panic (the PR-6 hardening this layer exercises).
var ErrWriteFault = errors.New("chaos: injected write fault")

// Config sets the per-seam fault rates. All rates are probabilities in
// [0, 1]; a zero rate disables that fault class entirely, so the zero
// Config injects nothing.
type Config struct {
	// Seed initializes the draw stream. Equal seeds give equal draw
	// sequences.
	Seed int64

	// DropRate is the probability an endpoint-to-endpoint message is
	// silently dropped (indistinguishable from a lossy link).
	DropRate float64
	// DelayRate is the probability a message gets extra in-flight delay,
	// uniform in (0, MaxDelay]. Because delays are drawn per message,
	// they reorder traffic across endpoint pairs while the transport's
	// per-pair FIFO (which raft and PBFT assume) is preserved.
	DelayRate float64
	// MaxDelay bounds the injected per-message delay.
	MaxDelay time.Duration

	// WriteFailRate is the probability an engine mutation (Put, Delete,
	// ApplyBatch) fails with ErrWriteFault.
	WriteFailRate float64
	// StallRate is the probability an engine mutation stalls — the
	// slow-fsync fault — for a uniform duration in (0, MaxStall].
	StallRate float64
	// MaxStall bounds the injected write stall.
	MaxStall time.Duration

	// SkewMin and SkewMax bound the multiplicative clock skew applied to
	// the ingress commit timeout: each dispatched batch's timeout is
	// nominal × uniform[SkewMin, SkewMax]. Both zero disables skew.
	SkewMin float64
	SkewMax float64
}

// Validate rejects configurations the injector cannot honour.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropRate", c.DropRate},
		{"DelayRate", c.DelayRate},
		{"WriteFailRate", c.WriteFailRate},
		{"StallRate", c.StallRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.DelayRate > 0 && c.MaxDelay <= 0 {
		return errors.New("chaos: DelayRate set without MaxDelay")
	}
	if c.StallRate > 0 && c.MaxStall <= 0 {
		return errors.New("chaos: StallRate set without MaxStall")
	}
	if c.SkewMin < 0 || c.SkewMax < c.SkewMin {
		return errors.New("chaos: need 0 <= SkewMin <= SkewMax")
	}
	return nil
}

// Stats attributes every injected fault by class, so experiment reports
// can separate chaos-caused sheds and errors from organic ones.
type Stats struct {
	Dropped        uint64
	Delayed        uint64
	WriteFaults    uint64
	WriteStalls    uint64
	SkewedTimeouts uint64
}

// Injector draws faults from one seeded stream and counts what it
// injected. Safe for concurrent use.
type Injector struct {
	cfg      Config
	disarmed atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand

	dropped     atomic.Uint64
	delayed     atomic.Uint64
	writeFaults atomic.Uint64
	writeStalls atomic.Uint64
	skewed      atomic.Uint64
}

// New builds an injector; the config must be valid.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// MustNew is New for static configs in tests and experiments.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		//lint:allow nopanic static-config constructor, a bad literal is a construction-time bug
		panic(err)
	}
	return in
}

// draw2 returns two uniform [0,1) samples from the seeded stream in one
// critical section, so a fault decision consumes a fixed draw count.
func (in *Injector) draw2() (float64, float64) {
	in.mu.Lock()
	a, b := in.rng.Float64(), in.rng.Float64()
	in.mu.Unlock()
	return a, b
}

// Disarm turns every fault class off: subsequent decisions are identity
// pass-throughs and stop consuming draws. Experiments disarm around the
// phases that must run clean — preload before measurement, and the
// post-fault convergence check after it — so injected faults land only
// on measured traffic.
func (in *Injector) Disarm() { in.disarmed.Store(true) }

// Arm undoes Disarm, resuming injection from the seeded stream where it
// left off.
func (in *Injector) Arm() { in.disarmed.Store(false) }

// MessageFault is a cluster.FaultHook: it decides whether to drop the
// message and how much extra in-flight delay to add.
func (in *Injector) MessageFault(from, to cluster.NodeID) (bool, time.Duration) {
	if in == nil || in.disarmed.Load() || (in.cfg.DropRate <= 0 && in.cfg.DelayRate <= 0) {
		return false, 0
	}
	d1, d2 := in.draw2()
	if in.cfg.DropRate > 0 && d1 < in.cfg.DropRate {
		in.dropped.Add(1)
		return true, 0
	}
	if in.cfg.DelayRate > 0 && d2 < in.cfg.DelayRate {
		in.delayed.Add(1)
		in.mu.Lock()
		extra := time.Duration(1 + in.rng.Int63n(int64(in.cfg.MaxDelay)))
		in.mu.Unlock()
		return false, extra
	}
	return false, 0
}

// SkewTimeout is the ingress commit-timeout hook: it maps the nominal commit
// timeout to the skewed one this batch's clock would have used.
func (in *Injector) SkewTimeout(nominal time.Duration) time.Duration {
	if in == nil || in.disarmed.Load() || in.cfg.SkewMax <= 0 {
		return nominal
	}
	in.mu.Lock()
	f := in.cfg.SkewMin + in.rng.Float64()*(in.cfg.SkewMax-in.cfg.SkewMin)
	in.mu.Unlock()
	in.skewed.Add(1)
	skewed := time.Duration(float64(nominal) * f)
	if skewed <= 0 {
		skewed = time.Nanosecond
	}
	return skewed
}

// Stats snapshots the per-class injection counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Dropped:        in.dropped.Load(),
		Delayed:        in.delayed.Load(),
		WriteFaults:    in.writeFaults.Load(),
		WriteStalls:    in.writeStalls.Load(),
		SkewedTimeouts: in.skewed.Load(),
	}
}

// Event is one scheduled lifecycle fault: crash Node at offset At from
// the run start and recover it Down later. Events may overlap on the
// same node; runners skip a crash aimed at a node that is already down.
type Event struct {
	At   time.Duration
	Node int
	Down time.Duration
}

// Schedule derives a deterministic crash/recover plan: a pure function
// of its arguments, so equal seeds give byte-identical schedules. The
// returned events are sorted by At.
func Schedule(seed int64, nodes, events int, span, minDown, maxDown time.Duration) []Event {
	if nodes <= 0 || events <= 0 || span <= 0 {
		return nil
	}
	if minDown <= 0 {
		minDown = time.Millisecond
	}
	if maxDown < minDown {
		maxDown = minDown
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Event, events)
	for i := range out {
		down := minDown
		if spread := int64(maxDown - minDown); spread > 0 {
			down += time.Duration(rng.Int63n(spread + 1))
		}
		out[i] = Event{
			At:   time.Duration(rng.Int63n(int64(span))),
			Node: rng.Intn(nodes),
			Down: down,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
