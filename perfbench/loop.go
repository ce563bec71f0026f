package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"j2kcell"
)

// task is one entry of a warm workload's deck: one public j2kcell call,
// and the check its output must pass (run after the call's timing).
type task struct {
	kind  string // codec.op_ms kind
	call  func(ctx context.Context) (any, error)
	check func(out any) bool
}

// loopResult is one closed-loop window.
type loopResult struct {
	recs     []opRec
	wall     time.Duration
	alloc    uint64 // heap bytes allocated during the window, all clients
	cpuNS    int64  // process CPU time used during the window
	sched    j2kcell.SchedStats
	goHWM    int       // goroutine high-water mark
	rssMB    []float64 // resident set samples
	deckRuns int
}

// closedLoop runs `clients` closed-loop clients over the deck: each
// client sends its next call only after the previous one returned. The
// deck is dealt in a fresh seeded order each round. Once dur has passed
// no new round starts, but the current one is finished, so a window
// always measures whole decks and the mix is exact.
func closedLoop(deck []task, seed uint64, dur time.Duration, trace, corrupt bool) loopResult {
	var (
		mu     sync.Mutex
		next   int
		order  []int
		done   bool
		rounds int
	)
	deadline := time.Now().Add(dur)
	draw := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if done {
			return 0, false
		}
		if next%len(deck) == 0 {
			if next > 0 && time.Now().After(deadline) {
				done = true
				return 0, false
			}
			order = rand.New(rand.NewPCG(seed, uint64(rounds))).Perm(len(deck))
			rounds++
		}
		i := order[next%len(deck)]
		next++
		return i, true
	}

	smp := startSampler()
	sched0 := j2kcell.SchedulerStats()
	alloc0, cpu0 := heapAllocs(), cpuTimeNS()
	start := time.Now()
	perClient := make([][]opRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := draw()
				if !ok {
					return
				}
				r := runTask(deck[i], trace, corrupt)
				r.task = i
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start), alloc: heapAllocs() - alloc0, cpuNS: cpuTimeNS() - cpu0, deckRuns: rounds}
	sched1 := j2kcell.SchedulerStats()
	res.sched = j2kcell.SchedStats{
		PoolClaims:   sched1.PoolClaims - sched0.PoolClaims,
		LaneSwitches: sched1.LaneSwitches - sched0.LaneSwitches,
	}
	smp.stop()
	res.goHWM, res.rssMB = smp.hwm, smp.rss
	for _, rs := range perClient {
		res.recs = append(res.recs, rs...)
	}
	return res
}

// runTask times one call and checks its output. The time and the
// thread CPU time spent after the call, on trace evaluation and the
// check, are recorded so that window metrics can leave them out.
func runTask(t task, trace, corrupt bool) (rec opRec) {
	rec = opRec{Kind: t.kind}
	ctx, finish := traced(context.Background(), trace, t.kind)
	t0 := time.Now()
	out, err := t.call(ctx)
	rec.NS = time.Since(t0).Nanoseconds()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c1 := threadCPUNS()
	defer func() {
		rec.CheckNS = time.Since(t0).Nanoseconds() - rec.NS
		rec.CheckCPU = threadCPUNS() - c1
	}()
	finish(&rec)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	if corrupt {
		out = damage(out)
	}
	rec.OK = t.check(out)
	if e, ok := out.(encoded); ok && e.stats != nil {
		rec.Bytes = len(e.data)
		rec.Kept, rec.Total = e.stats.KeptPasses, e.stats.TotalPasses
	}
	return rec
}

// sampler watches the process while operations run: the goroutine
// high-water mark and the resident set, every 2 ms. Its fields are
// read after stop returns.
type sampler struct {
	quit, done chan struct{}
	hwm        int
	rss        []float64 // MB
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{}), hwm: runtime.NumGoroutine()}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			if n := runtime.NumGoroutine(); n > s.hwm {
				s.hwm = n
			}
			if mb, ok := residentMB(); ok {
				s.rss = append(s.rss, mb)
			}
			select {
			case <-s.quit:
				return
			case <-tk.C:
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampling goroutine to exit.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// encoded is an encode task's output.
type encoded struct {
	data  []byte
	stats *j2kcell.Stats
}

// damage returns a copy of a task output with one value changed: the
// smoke test's stand-in for a codec that returns wrong results.
func damage(out any) any {
	switch v := out.(type) {
	case encoded:
		d := append([]byte(nil), v.data...)
		if len(d) > 0 {
			d[len(d)/2] ^= 0x5a
		}
		return encoded{d, v.stats}
	case *j2kcell.Image:
		if v == nil || len(v.Comps) == 0 || v.W == 0 || v.H == 0 {
			return v
		}
		c := v.Clone()
		c.Comps[0].Set(0, 0, c.Comps[0].At(0, 0)^1)
		return c
	}
	return out
}
