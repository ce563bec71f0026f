package codec

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"j2kcell/internal/faults"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
	"j2kcell/internal/workload"
)

// waitGoroutinesBelow waits for exiting goroutines (pool workers after
// the last lane closes, canceled op workers) to drain, failing if the
// count stays above limit. Unlike goroutineCount it waits for a
// decrease, since scheduler workers exit asynchronously after Close.
func waitGoroutinesBelow(t *testing.T, limit int, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > limit {
		t.Errorf("%s: %d goroutines alive, want <= %d", what, n, limit)
	}
}

// TestSchedulerByteIdentityAcrossPoolWidths pins the DESIGN.md §12
// proof obligation: per-operation codestreams are pool-width
// independent. The same encode through shared pools of width 1, 2, and
// 8 must be byte-identical to the sequential encoder, and decodes
// pixel-identical.
func TestSchedulerByteIdentityAcrossPoolWidths(t *testing.T) {
	img := workload.Dial(160, 160, 21, 4)
	for _, opt := range []Options{
		{Lossless: true},
		{Rate: 0.25},
		{Lossless: true, HT: true},
		{Lossless: true, TileW: 96, TileH: 96},
	} {
		ref, err := Encode(img, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 8} {
			s := NewScheduler(SchedConfig{Workers: width})
			ctx := WithScheduler(context.Background(), s)
			res, err := EncodeParallelContext(ctx, img, opt, 4)
			if err != nil {
				t.Fatalf("pool width %d: %v", width, err)
			}
			if !bytes.Equal(res.Data, ref.Data) {
				t.Fatalf("opt %+v: codestream differs at pool width %d", opt, width)
			}
			dec, err := DecodeWithContext(ctx, ref.Data, DecodeOptions{Workers: 4})
			if err != nil {
				t.Fatalf("decode pool width %d: %v", width, err)
			}
			seq, err := Decode(ref.Data)
			if err != nil {
				t.Fatal(err)
			}
			if !imagesEqual(dec, seq) {
				t.Fatalf("opt %+v: decode differs at pool width %d", opt, width)
			}
		}
	}
}

// TestSchedulerConcurrentOpsByteIdentity runs many concurrent encodes
// and decodes on one narrow shared pool and requires every operation's
// output to match its solo reference — cross-lane execution by pool
// workers must never leak state between operations.
func TestSchedulerConcurrentOpsByteIdentity(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 2})
	ctx := WithScheduler(context.Background(), s)

	opts := []Options{{Lossless: true}, {Rate: 0.3}, {Lossless: true, HT: true}, {Lossless: true, TileW: 64, TileH: 64}}
	var refs [4][]byte
	for i, opt := range opts {
		img := workload.Dial(128, 128, uint32(i+5), 4)
		ref, err := Encode(img, opt)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.Data
	}

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			i := k % 4
			img := workload.Dial(128, 128, uint32(i+5), 4)
			res, err := EncodeParallelContext(ctx, img, opts[i], 4)
			if err != nil {
				errs[k] = err
				return
			}
			if !bytes.Equal(res.Data, refs[i]) {
				errs[k] = errors.New("codestream differs under concurrent shared scheduling")
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
	}
}

// TestSchedulerTwoOpFaultIsolation is the PR 5 fault matrix made
// pool-wide: op A is canceled or hits an injected fault/panic while op
// B shares the same scheduler; B must complete byte-identical, A must
// fail with its own error, and no goroutines may leak (the concurrent
// two-op variant the CI race job runs).
func TestSchedulerTwoOpFaultIsolation(t *testing.T) {
	imgA := workload.Dial(192, 192, 77, 4)
	imgB := workload.Dial(128, 128, 13, 4)
	optB := Options{Lossless: true}
	refB, err := Encode(imgB, optB)
	if err != nil {
		t.Fatal(err)
	}

	// Each variant describes how op A is killed. The HT fault variants
	// arm the t1ht stage, which only op A (HT mode) enters, so the
	// injection deterministically targets A even though B runs
	// concurrently.
	variants := []struct {
		name string
		optA Options
		arm  func()
		kill func(cancel context.CancelFunc)
		want func(error) bool
	}{
		{
			name: "cancel",
			optA: Options{Lossless: true},
			kill: func(cancel context.CancelFunc) { time.Sleep(2 * time.Millisecond); cancel() },
			want: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
		{
			name: "panic",
			optA: Options{Lossless: true, HT: true},
			arm:  func() { faults.Arm("t1ht", 2, faults.Panic) },
			want: func(err error) bool { var fe *FaultError; return errors.As(err, &fe) },
		},
		{
			name: "error",
			optA: Options{Lossless: true, HT: true},
			arm:  func() { faults.Arm("t1ht", 2, faults.Error) },
			want: func(err error) bool { var fe *FaultError; return errors.As(err, &fe) },
		},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			before := goroutineCount()
			s := NewScheduler(SchedConfig{Workers: 2})
			base := WithScheduler(context.Background(), s)
			if v.arm != nil {
				v.arm()
				defer faults.Disarm()
			}

			ctxA, cancelA := context.WithCancel(base)
			defer cancelA()
			var errA error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errA = EncodeParallelContext(ctxA, imgA, v.optA, 4)
			}()
			if v.kill != nil {
				v.kill(cancelA)
			}

			// Op B runs while A is dying; it must be untouched.
			resB, errB := EncodeParallelContext(base, imgB, optB, 4)
			wg.Wait()
			if errB != nil {
				t.Fatalf("sibling op failed: %v", errB)
			}
			if !bytes.Equal(resB.Data, refB.Data) {
				t.Fatal("sibling op output changed while op A was killed")
			}
			if errA == nil {
				// Cancellation can race completion on a fast box; a clean
				// finish is acceptable only for the cancel variant.
				if v.arm != nil {
					t.Fatal("op A finished despite armed fault")
				}
			} else if !v.want(errA) {
				t.Fatalf("op A failed with %v, want variant-typed error", errA)
			}
			// All lanes closed => pool workers exit; nothing may leak.
			waitGoroutinesBelow(t, before+2, "after two-op "+v.name)

			// The pool must still serve new operations cleanly.
			resB2, err := EncodeParallelContext(base, imgB, optB, 4)
			if err != nil || !bytes.Equal(resB2.Data, refB.Data) {
				t.Fatalf("pool wedged after %s: err=%v", v.name, err)
			}
		})
	}
}

// TestSchedulerFairnessUnderLoad pins the starvation bound of the
// round-robin lane pick: a long archival encode must not starve
// thumbnail operations sharing the pool. Thumbnail latencies are read
// back from their own operation recorders (the per-op SLO
// observations), and the p99 must stay well below the archival
// encode's wall time — a starved thumbnail would wait for the whole
// archival drain.
func TestSchedulerFairnessUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based fairness bound")
	}
	s := NewScheduler(SchedConfig{Workers: 2})
	base := WithScheduler(context.Background(), s)

	// The archival is sized to outlast many contended thumbnails (a
	// 64² thumbnail is ~1/256 of its work), so the sample measures
	// contention rather than the tail of a short archival.
	big := workload.Dial(1024, 1024, 3, 4)
	thumb := workload.Dial(64, 64, 4, 4)
	thumbOpt := Options{Rate: 0.2}

	// One solo thumbnail first, outside the sample: the first operation
	// pays pool and scratch warm-up, which is not contention.
	if _, err := EncodeParallelContext(base, thumb, thumbOpt, 4); err != nil {
		t.Fatal(err)
	}

	var archDur atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		_, err := EncodeParallelContext(base, big, Options{Lossless: true, TileW: 128, TileH: 128}, 4)
		archDur.Store(int64(time.Since(start)))
		if err != nil {
			t.Error(err)
		}
	}()

	// Let the archival lane open and occupy the pool first, then sample
	// thumbnails for as long as it runs.
	time.Sleep(5 * time.Millisecond)
	var thumbs []time.Duration
	for archDur.Load() == 0 && len(thumbs) < 256 {
		ctx, op := obs.WithOperation(base, "thumb")
		_, err := EncodeParallelContext(ctx, thumb, thumbOpt, 4)
		d := op.Duration()
		op.Finish()
		if err != nil {
			t.Fatal(err)
		}
		// The op recorder must have observed exactly this operation.
		if got := op.Recorder().OpCount(obs.ClassOf(false, true, false, false)); got != 1 {
			t.Fatalf("thumbnail op recorder counted %d ops, want 1", got)
		}
		thumbs = append(thumbs, d)
	}
	wg.Wait()

	arch := time.Duration(archDur.Load())
	if len(thumbs) < 8 {
		t.Fatalf("archival (%v) outlasted only %d thumbnails, want at least 8", arch, len(thumbs))
	}
	sort.Slice(thumbs, func(i, j int) bool { return thumbs[i] < thumbs[j] })
	p99 := thumbs[len(thumbs)*99/100]
	// A starved thumbnail would block for the archival's remaining
	// drain (hundreds of ms); a fairly-scheduled one finishes orders of
	// magnitude sooner. The /2 bound is deliberately loose for CI noise.
	if p99 >= arch/2 {
		t.Errorf("thumbnail p99 %v not bounded under archival load (archival took %v, %d thumbnails)", p99, arch, len(thumbs))
	}
}

// TestSchedulerAdmissionBackpressure pins the admission queue: slots
// fill, the queue bounds, the overflow rejects with ErrOverloaded, a
// queued operation records its wait in the admit-stage histogram, and
// cancellation while queued returns ctx.Err() without losing a slot.
func TestSchedulerAdmissionBackpressure(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 2, MaxActive: 1, MaxQueue: 1})
	ctx := WithScheduler(context.Background(), s)
	img := workload.Dial(64, 64, 8, 4)

	// Hold the only active slot.
	release1, err := s.Admit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue with a waiter.
	queued := make(chan error, 1)
	go func() {
		release2, err := s.Admit(context.Background(), nil)
		if err == nil {
			defer release2()
		}
		queued <- err
	}()
	// Wait until the waiter is actually parked in the queue.
	for i := 0; i < 1000 && s.Stats().QueueDepth == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.Stats().QueueDepth != 1 {
		t.Fatalf("queue depth %d, want 1", s.Stats().QueueDepth)
	}

	// Queue full: a real encode must shed with ErrOverloaded.
	if _, err := EncodeParallelContext(ctx, img, Options{Lossless: true}, 4); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	// And a decode entry point sheds the same way.
	ref, err := Encode(img, Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWithContext(ctx, ref.Data, DecodeOptions{Workers: 4}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("decode got %v, want ErrOverloaded", err)
	}
	if got := s.Stats().AdmitRejects; got < 2 {
		t.Fatalf("admit rejects %d, want >= 2", got)
	}

	// Release the active slot: the first waiter gets it.
	release1()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter got %v after release", err)
	}

	// Re-occupy the only active slot for the remaining checks.
	release3, err := s.Admit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cancellation while queued: returns ctx.Err, frees the queue slot.
	cctx, cancel := context.WithCancel(context.Background())
	cancelErr := make(chan error, 1)
	go func() {
		_, err := s.Admit(cctx, nil)
		cancelErr <- err
	}()
	for i := 0; i < 1000 && s.Stats().QueueDepth == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued+canceled Admit returned %v, want context.Canceled", err)
	}
	if got := s.Stats().QueueDepth; got != 0 {
		t.Fatalf("canceled waiter left queue depth %d, want 0", got)
	}
	// Queue-wait lands in the per-op SLO surface: run an op that has to
	// queue behind the held slot and check its recorder's admit-stage
	// histogram observed the wait.
	opCtx, op := obs.WithOperation(ctx, "queued-encode")
	done := make(chan error, 1)
	go func() {
		_, err := EncodeParallelContext(opCtx, img, Options{Lossless: true}, 4)
		done <- err
	}()
	for i := 0; i < 1000 && s.Stats().QueueDepth == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	release3()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	op.Finish()
	rec := op.Recorder()
	if got := rec.Counter(obs.CtrSchedAdmitWaits); got != 1 {
		t.Errorf("sched_admit_waits = %d, want 1", got)
	}
	if got := rec.Hist(obs.StageAdmit).Count(); got != 1 {
		t.Errorf("admit-stage histogram observed %d waits, want 1", got)
	}
}

// TestSchedulerGoroutineBound pins the whole point of the scheduler:
// c concurrent operations at `workers` width hold the process at
// O(GOMAXPROCS + c) goroutines on the shared pool, not O(c×workers).
func TestSchedulerGoroutineBound(t *testing.T) {
	const (
		concOps   = 8
		opWorkers = 8
		poolWidth = 2
	)
	before := goroutineCount()
	s := NewScheduler(SchedConfig{Workers: poolWidth})
	ctx := WithScheduler(context.Background(), s)
	img := workload.Dial(160, 160, 31, 4)

	stop := make(chan struct{})
	var hwm atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if g := int64(runtime.NumGoroutine()); g > hwm.Load() {
					hwm.Store(g)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for k := 0; k < concOps; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := EncodeParallelContext(ctx, img, Options{Lossless: true}, opWorkers); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)

	// Budget: baseline + one driver per op + the pool + sampler slack.
	limit := int64(before + concOps + poolWidth + 6)
	if got := hwm.Load(); got > limit {
		t.Errorf("goroutine high-water %d exceeds shared-pool bound %d (c×workers would be ~%d)",
			got, limit, before+concOps*opWorkers)
	}
	waitGoroutinesBelow(t, before+2, "after bounded run")
}

// imagesEqual compares two decoded images sample-exactly.
func imagesEqual(a, b *imgmodel.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Comps) != len(b.Comps) {
		return false
	}
	for c := range a.Comps {
		pa, pb := a.Comps[c], b.Comps[c]
		for y := 0; y < pa.H; y++ {
			ra := pa.Data[y*pa.Stride : y*pa.Stride+pa.W]
			rb := pb.Data[y*pb.Stride : y*pb.Stride+pb.W]
			for x, v := range ra {
				if rb[x] != v {
					return false
				}
			}
		}
	}
	return true
}
