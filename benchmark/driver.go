package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dichotomy/internal/metrics"
	"dichotomy/internal/recovery"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

const (
	// clientTimeout is how long a client waits for an outcome after its
	// phase has stopped issuing; a request still unresolved then is a
	// failure.
	clientTimeout = 10 * time.Second
	// resendAfter is how long a client waits for an outcome before it
	// sends the request again, once. A record the ordering service
	// accepted is lost when its raft leader changes, and the systems wait
	// 60 s before saying so (README, Findings); a real client would not.
	// The request stays timed from its due instant, so a re-sent request
	// shows as a two-second latency, not as a failure.
	resendAfter = 2 * time.Second
)

type phaseID uint8

const (
	phaseWarm phaseID = iota
	phaseSat
	phasePaced
)

// record is one request as the client saw it.
type record struct {
	tx    *txn.Tx
	due   time.Time // when the request was due; equals start in a closed loop
	start time.Time // when Submit was called
	end   time.Time // when the outcome reached the client
	phase phaseID
	out   outcome
	retry bool
	err   error
	// phases is Tx.Trace.Durations(), read after resolve in a traced phase.
	phases map[string]time.Duration
}

func (r *record) latency() time.Duration { return r.end.Sub(r.due) }

// snap is one reading of the process-wide meters.
type snap struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapInuse  uint64
	committed  int64
}

func takeSnap(committed *atomic.Int64) snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{
		at:         time.Now(),
		cpu:        processCPU(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
		heapInuse:  ms.HeapInuse,
		committed:  committed.Load(),
	}
}

// processCPU is user+system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// await resolves one submitted request into rec: it waits for the
// outcome (or the phase's give-up signal), sends the request again once —
// when it failed in the crash race retryable describes, or when nothing
// has been heard for resendAfter — and stamps the end time.
func await(sys system.System, h *system.Handle, subErr error, rec *record, giveUp <-chan struct{}, traced bool) {
	resend := time.NewTimer(resendAfter)
	defer resend.Stop()
	silence := resend.C // nil once the one re-send is spent
	for {
		r := system.Result{Err: subErr}
		silent := false
		if subErr == nil {
			select {
			case r = <-h.Done():
			case <-silence:
				silent = true
			case <-giveUp:
				r = system.Result{Err: errClientTimeout}
			}
		}
		if silence != nil && (silent || retryable(r)) {
			// A fresh copy, so a first submission that is merely slow and
			// still travelling through a block is not mutated under it.
			silence = nil
			rec.retry = true
			rec.tx = &txn.Tx{
				ID: rec.tx.ID, Client: rec.tx.Client, Invocation: rec.tx.Invocation,
				Sig: rec.tx.Sig, Trace: metrics.NewTrace(),
			}
			h, subErr = sys.Submit(context.Background(), rec.tx)
			continue
		}
		rec.end = time.Now()
		rec.out = classify(r)
		if rec.out == failed || rec.out == shed {
			rec.err = r.Err
		}
		if traced {
			rec.phases = rec.tx.Trace.Durations()
		}
		return
	}
}

// waitAll waits for the phase's waiters; past clientTimeout it closes
// giveUp so the stragglers resolve as timeouts.
func waitAll(wg *sync.WaitGroup, giveUp chan struct{}) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(clientTimeout):
		close(giveUp)
		<-done
	}
}

// probeIdle sends n requests one at a time to the idle system and returns
// them with the lower quartile of the committed updates' latency: what a
// request costs when nothing queues, which is what tells two builds of
// the same system apart (see runWorkload).
func probeIdle(sys system.System, p *pool, n int) ([]record, time.Duration, error) {
	recs := make([]record, n)
	giveUp := make(chan struct{})
	budget := time.AfterFunc(clientTimeout, func() { close(giveUp) })
	defer budget.Stop()
	for i := range recs {
		tx, err := p.take()
		if err != nil {
			return nil, 0, err
		}
		rec := &recs[i]
		rec.tx, rec.phase, rec.start = tx, phaseWarm, time.Now()
		rec.due = rec.start
		h, subErr := sys.Submit(context.Background(), tx)
		await(sys, h, subErr, rec, giveUp, false)
	}
	var lat []time.Duration
	for i := range recs {
		if r := &recs[i]; r.out == committed && !isRead(r.tx) {
			lat = append(lat, r.latency())
		}
	}
	slices.Sort(lat)
	return recs, percentile(lat, 25), nil
}

// satResult is the closed-loop phase: snaps[0] is taken when warm-up
// ends, snaps[i] at the end of window i.
type satResult struct {
	recs  []record
	snaps []snap
}

// runSat drives a closed loop of `window` outstanding requests through
// warm-up and `windows` measurement windows, then drains.
func runSat(sys system.System, p *pool, window int, warm, win time.Duration, windows int) (satResult, error) {
	var (
		committedN atomic.Int64
		measuring  atomic.Bool
		stop       atomic.Bool
		wg         sync.WaitGroup
		giveUp     = make(chan struct{})
		perWorker  = make([][]record, window)
		genErr     atomic.Pointer[error]
	)
	for i := 0; i < window; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var recs []record
			for !stop.Load() {
				tx, err := p.take()
				if err != nil {
					genErr.Store(&err)
					break
				}
				rec := record{tx: tx, phase: phaseWarm}
				if measuring.Load() {
					rec.phase = phaseSat
				}
				rec.start = time.Now()
				rec.due = rec.start
				h, subErr := sys.Submit(context.Background(), tx)
				await(sys, h, subErr, &rec, giveUp, false)
				if rec.out == committed {
					committedN.Add(1)
				}
				recs = append(recs, rec)
			}
			perWorker[slot] = recs
		}(i)
	}
	res := satResult{snaps: make([]snap, 0, windows+1)}
	time.Sleep(warm)
	measuring.Store(true)
	res.snaps = append(res.snaps, takeSnap(&committedN))
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(res.snaps[0].at.Add(time.Duration(i) * win)))
		res.snaps = append(res.snaps, takeSnap(&committedN))
	}
	stop.Store(true)
	waitAll(&wg, giveUp)
	for _, recs := range perWorker {
		res.recs = append(res.recs, recs...)
	}
	if e := genErr.Load(); e != nil {
		return res, fmt.Errorf("sat phase: %w", *e)
	}
	return res, nil
}

// pacedResult is the open-loop phase.
type pacedResult struct {
	recs   []record
	before snap
	after  snap
	// loaded is the system's counters read while the last arrivals were
	// still in flight — the only moment a lag or a queue depth means
	// anything; after the drain they all read zero.
	loaded     counters
	lateMax    time.Duration
	recoveries []recovery.Stats
	recoverDur []time.Duration
}

// runPaced sends n = rate×dur requests at fixed intervals from one
// goroutine; each is timed from the instant it was due, so a stall in
// the system (or in this generator — see lateMax) is charged to every
// request it delayed. With crashCycles > 0 a fault goroutine crashes and
// recovers one replica per cycle while the load keeps arriving.
func runPaced(t *target, p *pool, rate float64, dur time.Duration, crashCycles int, traced bool) (pacedResult, error) {
	n := int(rate * dur.Seconds())
	res := pacedResult{recs: make([]record, n)}
	var (
		committedN atomic.Int64
		wg         sync.WaitGroup
		faults     sync.WaitGroup
		giveUp     = make(chan struct{})
		faultErr   error
	)
	res.before = takeSnap(&committedN)
	t0 := time.Now()
	if crashCycles > 0 {
		faults.Add(1)
		go func() {
			defer faults.Done()
			period := dur / time.Duration(crashCycles)
			for c := 0; c < crashCycles; c++ {
				base := t0.Add(time.Duration(c) * period)
				time.Sleep(time.Until(base.Add(period / 8)))
				t.crash()
				time.Sleep(time.Until(base.Add(period * 5 / 8)))
				start := time.Now()
				st, err := t.recover()
				if err != nil {
					faultErr = fmt.Errorf("recover cycle %d: %w", c, err)
					return
				}
				res.recoverDur = append(res.recoverDur, time.Since(start))
				res.recoveries = append(res.recoveries, st)
			}
		}()
	}
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		rec := &res.recs[i]
		tx, err := p.take()
		if err != nil {
			close(giveUp)
			wg.Wait()
			faults.Wait()
			return res, fmt.Errorf("paced phase: %w", err)
		}
		rec.tx, rec.phase = tx, phasePaced
		rec.due = t0.Add(time.Duration(float64(i) * interval))
		if d := time.Until(rec.due); d > 0 {
			//lint:allow sleepyloop open-loop pacing: the arrival schedule is the workload
			time.Sleep(d)
		}
		rec.start = time.Now()
		if late := rec.start.Sub(rec.due); late > res.lateMax {
			res.lateMax = late
		}
		h, subErr := t.sys.Submit(context.Background(), tx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			await(t.sys, h, subErr, rec, giveUp, traced)
			if rec.out == committed {
				committedN.Add(1)
			}
		}()
	}
	res.loaded = t.counters()
	waitAll(&wg, giveUp)
	faults.Wait()
	res.after = takeSnap(&committedN)
	return res, faultErr
}
