// Observability must be a pure observer: recording an operation must
// not change a single output byte, and the disabled path must stay
// allocation-free so leaving the instrumentation compiled into the hot
// path costs nothing (pinned here and by BenchmarkEncodeObsOverhead).
package j2kcell

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"j2kcell/internal/obs"
)

// TestEncodeObsByteIdentical runs the determinism matrix under an
// operation recorder and compares against the obs-off stream: same
// bytes for {lossless, lossy} × {untiled, tiled} at every worker
// count.
func TestEncodeObsByteIdentical(t *testing.T) {
	img := TestImage(97, 61, 7)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			ref, _, err := EncodeParallel(img, tc.opt, 1) // obs off
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				t.Run(fmt.Sprintf("workers-%d", w), func(t *testing.T) {
					ctx, op := obs.WithOperation(context.Background(), "encode")
					got, _, err := EncodeParallelContext(ctx, img, tc.opt, w)
					op.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, ref) {
						t.Fatalf("observed stream differs from unobserved (%d vs %d bytes)",
							len(got), len(ref))
					}
					if op.Recorder().Counter(obs.CtrT1Blocks) == 0 {
						t.Fatal("operation recorded but no Tier-1 blocks counted")
					}
				})
			}
		})
	}
}

// TestEncodeObsReportHasStages checks the full loop: run an operation
// under a recorder, build the Amdahl report, and require its stages to
// appear with plausible accounting. A tiled lossy encode runs the same
// chain per tile, quantizing inside the Tier-1 jobs; a decode
// attributes its packet parsing to t2.
func TestEncodeObsReportHasStages(t *testing.T) {
	img := TestImage(192, 160, 9)
	stream, _, err := Encode(img, Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(opt Options) func(context.Context) error {
		return func(ctx context.Context) error {
			_, _, err := EncodeParallelContext(ctx, img, opt, 2)
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		run    func(context.Context) error
		want   []string
		absent []string
	}{
		{
			name: "encode-lossless",
			run:  encode(Options{Lossless: true}),
			want: []string{"mct", "dwt-v", "dwt-h", "t1", "t2", "frame"},
		},
		{
			name:   "encode-lossy-4-tiles",
			run:    encode(Options{Rate: 0.1, TileW: 96, TileH: 80}),
			want:   []string{"tile", "mct", "dwt-v", "dwt-h", "t1", "rate", "t2", "frame"},
			absent: []string{"quant"},
		},
		{
			name: "decode-lossless",
			run: func(ctx context.Context) error {
				_, err := DecodeWithContext(ctx, stream, DecodeOptions{Workers: 2})
				return err
			},
			want: []string{"t2", "t1", "idwt-v", "idwt-h", "imct"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, op := obs.WithOperation(context.Background(), tc.name)
			err := tc.run(ctx)
			op.Finish()
			if err != nil {
				t.Fatal(err)
			}
			rec := op.Recorder()
			spans := rec.TSpans()
			rep := obs.BuildReport(spans, 2)
			if rep.Total <= 0 || rep.Busy <= 0 {
				t.Fatalf("degenerate report: %+v", rep)
			}
			if rep.SerialFrac < 0 || rep.SerialFrac > 1 {
				t.Fatalf("serial fraction %v out of [0,1]", rep.SerialFrac)
			}
			// Envelope stages (tile) enclose other spans and have no
			// report row, so presence is checked on the spans.
			seen := map[string]bool{}
			for _, s := range spans {
				seen[s.RowName()] = true
			}
			for _, stage := range tc.want {
				if !seen[stage] {
					t.Errorf("no %q spans; report:\n%s", stage, rep.Table())
				}
			}
			for _, stage := range tc.absent {
				if seen[stage] {
					t.Errorf("unexpected %q spans; report:\n%s", stage, rep.Table())
				}
			}
			var buf bytes.Buffer
			if err := obs.WriteChromeTrace(&buf, spans, rec.Counters()); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("empty Chrome trace")
			}
		})
	}
}

// TestEncodeObsDisabledHotPathAllocs: the instrumented work-queue loop
// (Acquire/Claim/Begin/End/Release per job) must not allocate when the
// operation carries no recorder — the nil *Recorder every unobserved
// pipeline holds.
func TestEncodeObsDisabledHotPathAllocs(t *testing.T) {
	var rec *obs.Recorder
	ln := rec.Acquire()
	got := testing.AllocsPerRun(1000, func() {
		ln.Claim()
		sp := ln.Begin(obs.StageT1, 0, 0)
		sp.End()
		rec.Add(obs.CtrT1Blocks, 1)
		rec.Add(obs.CtrDWTBytesMoved, 4096)
	})
	ln.Release()
	if got != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", got)
	}
}

// TestEncodeObsConcurrentAttribution is the contract of the
// context-scoped recorders: concurrent encodes and decodes, each
// under its own obs.WithOperation, must get distinct trace IDs,
// disjoint span sets (no decode stage ever lands in an encode op's
// recorder or vice versa), correct per-op class counts, and the
// aggregate registry must show exactly the rolled-up totals. Runs
// under -race in CI (matched by the TestEncodeObs pattern).
func TestEncodeObsConcurrentAttribution(t *testing.T) {
	prev := obs.SwapAggregate(nil)
	defer obs.SwapAggregate(prev)

	img := TestImage(128, 96, 5)
	stream, _, err := Encode(img, Options{Lossless: true}) // unobserved input
	if err != nil {
		t.Fatal(err)
	}

	const per = 3
	encOps := make([]*obs.Op, per)
	decOps := make([]*obs.Op, per)
	errc := make(chan error, 2*per)
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			ctx, op := obs.WithOperation(context.Background(), "encode")
			encOps[i] = op
			_, _, err := EncodeParallelContext(ctx, img, Options{Lossless: true}, 2)
			op.Finish()
			if err != nil {
				errc <- err
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			ctx, op := obs.WithOperation(context.Background(), "decode")
			decOps[i] = op
			_, err := DecodeWithContext(ctx, stream, DecodeOptions{Workers: 2})
			op.Finish()
			if err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	ids := map[string]bool{}
	for _, op := range append(append([]*obs.Op{}, encOps...), decOps...) {
		if op.TraceID() == "" || ids[op.TraceID()] {
			t.Fatalf("trace ID %q empty or duplicated", op.TraceID())
		}
		ids[op.TraceID()] = true
	}

	decStages := map[obs.Stage]bool{
		obs.StageZero: true, obs.StageDeq: true, obs.StageIDWTVert: true,
		obs.StageIDWTHorz: true, obs.StageIMCT: true, obs.StageDecode: true,
	}
	encStages := map[obs.Stage]bool{
		obs.StageMCT: true, obs.StageDWTVert: true, obs.StageDWTHorz: true,
		obs.StageRate: true, obs.StageFrame: true, obs.StageEncode: true,
	}
	encClass := obs.ClassOf(false, false, false, false)
	decClass := obs.ClassOf(true, false, false, false)

	for i, op := range encOps {
		rec := op.Recorder()
		spans := rec.TSpans()
		if len(spans) == 0 {
			t.Fatalf("encode op %d recorded no spans", i)
		}
		for _, sp := range spans {
			if decStages[sp.Stage] {
				t.Fatalf("encode op %d leaked decode-stage span %q", i, sp.Name)
			}
		}
		if rec.Counter(obs.CtrT1Blocks) == 0 {
			t.Fatalf("encode op %d counted no Tier-1 blocks", i)
		}
		if rec.Counter(obs.CtrDecodeParts) != 0 || rec.Counter(obs.CtrDecodeSingles) != 0 {
			t.Fatalf("encode op %d leaked decode partition counters", i)
		}
		if rec.OpCount(encClass) != 1 || rec.OpCount(decClass) != 0 {
			t.Fatalf("encode op %d class counts: enc=%d dec=%d",
				i, rec.OpCount(encClass), rec.OpCount(decClass))
		}
	}
	for i, op := range decOps {
		rec := op.Recorder()
		spans := rec.TSpans()
		if len(spans) == 0 {
			t.Fatalf("decode op %d recorded no spans", i)
		}
		for _, sp := range spans {
			if encStages[sp.Stage] {
				t.Fatalf("decode op %d leaked encode-stage span %q", i, sp.Name)
			}
		}
		if rec.Counter(obs.CtrDecodeParts)+rec.Counter(obs.CtrDecodeSingles) == 0 {
			t.Fatalf("decode op %d formed no Tier-1 partitions", i)
		}
		if rec.Counter(obs.CtrT1Blocks) != 0 {
			t.Fatalf("decode op %d leaked encode-side block counter", i)
		}
		if rec.OpCount(decClass) != 1 || rec.OpCount(encClass) != 0 {
			t.Fatalf("decode op %d class counts: dec=%d enc=%d",
				i, rec.OpCount(decClass), rec.OpCount(encClass))
		}
	}

	reg := obs.Aggregate()
	if reg.Ops(encClass) != per || reg.Ops(decClass) != per || reg.OpsTotal() != 2*per {
		t.Fatalf("aggregate ops: enc=%d dec=%d total=%d, want %d/%d/%d",
			reg.Ops(encClass), reg.Ops(decClass), reg.OpsTotal(), per, per, 2*per)
	}
	if reg.OpsActive() != 0 {
		t.Fatalf("operations still active after all Finish: %d", reg.OpsActive())
	}
	if reg.OpErrors() != 0 {
		t.Fatalf("aggregate op errors: %d", reg.OpErrors())
	}
}

// TestEncodeObsDisabledContextPathAllocs pins the context-threaded
// disabled path: resolving the recorder from a context with no
// operation attached, plus every nil-recorder hook the codec calls
// (lane spans, counters, SLO recording), must stay allocation-free.
func TestEncodeObsDisabledContextPathAllocs(t *testing.T) {
	ctx := context.Background()
	if obs.FromContext(ctx) != nil {
		t.Fatal("FromContext on a plain context should be nil")
	}
	got := testing.AllocsPerRun(1000, func() {
		rec := obs.FromContext(ctx)
		ln := rec.Acquire()
		ln.Claim()
		sp := ln.Begin(obs.StageT1, 0, 0)
		sp.End()
		ln.Release()
		rec.Add(obs.CtrT1Blocks, 1)
		rec.OpDone(obs.ClassOf(false, false, false, false), 0)
		rec.OpFailed()
	})
	if got != 0 {
		t.Fatalf("obs-disabled context path allocates %.1f per op, want 0", got)
	}
}

// TestOperationSpansStayOnTheirOperation checks where a codec call's
// observations land. A lossy encode and a full and a DiscardLevels 3
// decode, each under its own operation, record spans on that
// operation's recorder. The same three calls on a plain context record
// nothing anywhere: the aggregate registry's counters stay unchanged.
func TestOperationSpansStayOnTheirOperation(t *testing.T) {
	prev := obs.SwapAggregate(nil)
	defer obs.SwapAggregate(prev)
	img := TestImage(160, 128, 11)
	opt := Options{Rate: 0.2}
	ctx, enc := obs.WithOperation(context.Background(), "encode")
	data, _, err := EncodeParallelContext(ctx, img, opt, 2)
	enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ops := []*obs.Op{enc}
	for _, discard := range []int{0, 3} {
		ctx, dec := obs.WithOperation(context.Background(), "decode")
		_, err := DecodeWithContext(ctx, data, DecodeOptions{DiscardLevels: discard, Workers: 2})
		dec.Finish()
		if err != nil {
			t.Fatalf("discard %d: %v", discard, err)
		}
		ops = append(ops, dec)
	}
	for i, op := range ops {
		if len(op.Recorder().TSpans()) == 0 {
			t.Fatalf("operation %d (%s) recorded no spans", i, op.Kind())
		}
	}

	ctx = context.Background()
	before := obs.Aggregate().Counters()
	plain, _, err := EncodeParallelContext(ctx, img, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, data) {
		t.Fatal("unobserved encode differs from the observed one")
	}
	for _, discard := range []int{0, 3} {
		if _, err := DecodeWithContext(ctx, data, DecodeOptions{DiscardLevels: discard, Workers: 2}); err != nil {
			t.Fatalf("discard %d: %v", discard, err)
		}
	}
	if after := obs.Aggregate().Counters(); !reflect.DeepEqual(after, before) {
		t.Fatalf("unobserved operations changed the aggregate counters:\n before %v\n after  %v", before, after)
	}
}

// BenchmarkEncodeObsOverhead measures the whole-pipeline cost of the
// instrumentation: `off` is the shipping default (a nil check per
// hook), `on` records every span and counter of every encode into one
// long-lived operation. The acceptance bar for the disabled path is
// ≤2% against an uninstrumented build.
func BenchmarkEncodeObsOverhead(b *testing.B) {
	img := TestImage(512, 512, 11)
	opt := Options{Lossless: true}
	workers := runtime.GOMAXPROCS(0)
	run := func(ctx context.Context, b *testing.B) {
		b.SetBytes(int64(img.W * img.H * len(img.Comps)))
		for i := 0; i < b.N; i++ {
			if _, _, err := EncodeParallelContext(ctx, img, opt, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(context.Background(), b) })
	b.Run("on", func(b *testing.B) {
		ctx, op := obs.WithOperation(context.Background(), "bench")
		defer op.Finish()
		run(ctx, b)
	})
	// per-op: a fresh context-scoped recorder per encode — the
	// server-style cost (WithOperation + roll-up into the aggregate on
	// Finish) rather than one long-lived operation.
	b.Run("per-op", func(b *testing.B) {
		b.SetBytes(int64(img.W * img.H * len(img.Comps)))
		for i := 0; i < b.N; i++ {
			ctx, op := obs.WithOperation(context.Background(), "bench")
			if _, _, err := EncodeParallelContext(ctx, img, opt, workers); err != nil {
				b.Fatal(err)
			}
			op.Finish()
		}
	})
}
