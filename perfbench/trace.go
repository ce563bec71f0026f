package main

import (
	"context"
	"sort"

	"j2kcell/internal/obs"
)

// stageGroups are the codec.self_ms.<stage> rows, in report order. The
// recorder's finer stage names fold into them (see rowGroup).
var stageGroups = []string{
	"calib", "mct", "dwt", "quant", "t1", "rate", "t2",
	"zero", "deq", "idwt", "imct", "tile", "admit",
}

// rowGroup maps a stage-report row (obs.StageStat.Name) to its
// self-time group.
func rowGroup(row string) string {
	switch row {
	case "dwt-v", "dwt-h":
		return "dwt"
	case "idwt-v", "idwt-h":
		return "idwt"
	case "t1ht":
		return "t1"
	case "hull":
		return "rate"
	case "frame":
		return "t2"
	}
	return row
}

// opRec is one measured operation. Untraced runs fill only the first
// block; traced runs add the span attribution and the recorder's
// counters. Cold-start children send it to the parent as JSON.
type opRec struct {
	Kind  string `json:"kind"`
	task  int    // deck index (warm workloads)
	NS    int64  `json:"ns"`               // benchmark span around the public j2kcell call
	Alloc uint64 `json:"alloc,omitempty"`  // heap bytes the call allocated (sequential contexts only)
	CPUNS int64  `json:"cpu_ns,omitempty"` // process CPU time the call used (cold children only)
	// CheckNS and CheckCPU are the time (wall) and the CPU time of the
	// calling thread spent after the call on the benchmark's own work:
	// trace evaluation and the output check. Metrics over a whole
	// window leave them out.
	CheckNS  int64   `json:"check_ns,omitempty"`
	CheckCPU int64   `json:"-"`
	OK       bool    `json:"ok"`
	Err      string  `json:"err,omitempty"`
	Bytes    int     `json:"bytes,omitempty"` // encode output size
	PSNR     float64 `json:"psnr,omitempty"`  // lossy encode output, decoded outside the timed window
	Kept     int     `json:"kept,omitempty"`  // lossy encode: passes rate control kept
	Total    int     `json:"total,omitempty"` // lossy encode: passes coded
	// LossyDec marks a cold decode of a lossy stream (it calibrates the
	// 9/7 gains on first use).
	LossyDec bool `json:"lossy_dec,omitempty"`

	Traced   bool             `json:"traced,omitempty"`
	Self     map[string]int64 `json:"self,omitempty"`    // stage group -> self ns, summed over lanes
	Covered  int64            `json:"covered,omitempty"` // wall ns with at least one lane in a stage
	Window   int64            `json:"window,omitempty"`  // span extent (obs.BuildReport Total)
	Serial   int64            `json:"serial,omitempty"`
	Busy     int64            `json:"busy,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`

	// Cold-start children only: what the parent cannot see from outside.
	PoolClaims   int64 `json:"pool_claims,omitempty"`
	LaneSwitches int64 `json:"lane_switches,omitempty"`
	Goroutines   int   `json:"goroutines,omitempty"`
	RSSKB        int64 `json:"rss_kb,omitempty"` // peak RSS up to the end of the call
}

// traced wraps ctx in a fresh per-operation recorder when on, and
// returns a finish function that closes the operation and folds its
// spans and counters into rec.
func traced(ctx context.Context, on bool, kind string) (context.Context, func(rec *opRec)) {
	if !on {
		return ctx, func(*opRec) {}
	}
	ctx, op := obs.WithOperation(ctx, "perfbench:"+kind)
	return ctx, func(rec *opRec) {
		op.Finish()
		r := op.Recorder()
		spans := r.TSpans()
		rec.Traced = true
		rec.Self, rec.Covered = stageSelf(spans)
		rep := obs.BuildReport(spans, opWorkers)
		rec.Window, rec.Serial, rec.Busy = int64(rep.Total), int64(rep.Serial), int64(rep.Busy)
		rec.Counters = r.Counters()
	}
}

// stageSelf returns an operation's self time per stage group, summed
// over lanes (the busy time of obs.BuildReport's stage rows), and the
// wall time during which at least one lane ran a stage. The whole-tile
// envelope counts as a stage of its own, "tile": its self time is what
// its inner stages leave. The whole-operation envelopes count as
// neither, so their uncovered remainder is the unattributed share.
func stageSelf(spans []obs.TSpan) (map[string]int64, int64) {
	var work []obs.TSpan
	var iv [][2]int64
	for _, s := range spans {
		switch s.Stage {
		case obs.StageEncode, obs.StageDecode:
			continue
		case obs.StageTile:
			s.Stage, s.Name = obs.StageExtern, "tile"
		}
		work = append(work, s)
		iv = append(iv, [2]int64{s.Start, s.End})
	}
	self := map[string]int64{}
	for _, st := range obs.BuildReport(work, opWorkers).Stages {
		self[rowGroup(st.Name)] += int64(st.Busy)
	}
	return self, unionLen(iv)
}

// unionLen is the total length of the union of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}
