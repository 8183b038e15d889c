package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"markovseq/internal/core"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
)

// append-rank: one stream, loaded at n=appendPrefix; each op appends a
// fixed batch of events and asks for the top 10, so each TopK is served
// by the cross-append carry. Every appendCycle ops the stream is reset
// to a prefix (timed apart from the ops), so every run covers the same
// range of n (116..292) and the workload stays stationary. Successive
// cycles use successive traces, and a pass serves every trace once:
// short cycles let a run average over many traces, which keeps its
// figures steady across seeds.
const (
	appendPrefix = 100
	appendBatch  = 16
	appendCycle  = 12
	appendTraces = 48
	appendK      = 10
	// Set-up warms the store up with appendWarm ops on each of
	// appendWarmTraces traces.
	appendWarmTraces = 12
	appendWarm       = 1
	// appendVerifyEvery samples the ops checked against a from-scratch
	// store: positions j ≡ appendVerifyEvery-1 (mod appendVerifyEvery)
	// of every trace served.
	appendVerifyEvery = 4
	// appendHeapEvery: the live heap is read after every appendHeapEvery
	// cycles, outside the measured time.
	appendHeapEvery = 8
	// appendCountCycles is the number of traced cycles the exact
	// counters are taken over; a traced run lasts at least that long.
	appendCountCycles = 4
)

type appendInputs struct {
	w rfidWorld
	// prefix[t] is trace t cut at appendPrefix; events[t][j] is op j's
	// batch.
	prefix []*markov.Sequence
	events [][][]lahar.Event
}

func genAppendInputs(seed int64) (*appendInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &appendInputs{w: newRFIDWorld()}
	full := appendPrefix + appendCycle*appendBatch
	for t := 0; t < appendTraces; t++ {
		m, err := in.w.trace(full, rng)
		if err != nil {
			return nil, err
		}
		in.prefix = append(in.prefix, m.Window(1, appendPrefix))
		var batches [][]lahar.Event
		for j := 0; j < appendCycle; j++ {
			from := appendPrefix + j*appendBatch
			batches = append(batches, eventsOf(m, from, from+appendBatch))
		}
		in.events = append(in.events, batches)
	}
	return in, nil
}

// appendN is the stream length after op j of a cycle.
func appendN(j int) int { return appendPrefix + (j+1)*appendBatch }

// resetAppend stores trace t's prefix and drains it, so the next op's
// TopK carries from a ranked tree as a long-running stream's would.
func resetAppend(db *lahar.DB, in *appendInputs, t int) error {
	if err := db.PutStream("s", in.prefix[t]); err != nil {
		return err
	}
	_, err := db.TopK("s", "place", appendK)
	return err
}

// setupAppend builds the store and warms it up with appendWarm ops on
// each of appendWarmTraces traces, the set-up rep's own (set-up rep r
// uses traces r·appendWarmTraces onwards): the cost a user pays before
// the stream is in steady state, spread over many traces so that the
// median over reps does not hinge on a few traces' content.
func setupAppend(in *appendInputs, rep int) (*lahar.DB, error) {
	db := lahar.New()
	db.RegisterTransducer("place", in.w.place)
	for i := 0; i < appendWarmTraces; i++ {
		t := (rep*appendWarmTraces + i) % appendTraces
		if err := resetAppend(db, in, t); err != nil {
			return nil, err
		}
		for j := 0; j < appendWarm; j++ {
			if op := appendStep(db, in, t, j); op.err != nil {
				return nil, op.err
			}
		}
	}
	return db, nil
}

type appendOp struct {
	cycle, trace, j    int
	ms, writeMS, topMS float64
	res                []lahar.Result
	err                error
}

func runAppendRank(cfg config) (result, map[string]any, error) {
	in, err := genAppendInputs(cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	setup := func(r int) (*lahar.DB, error) { return setupAppend(in, r) }
	db, setupSecs, err := timedSetups(0, setupReps/2, setup)
	if err != nil {
		return result{}, nil, err
	}
	if cfg.trace {
		return traceAppendRank(cfg, in, db, median(setupSecs))
	}
	// The live heap is read after every appendHeapEvery-th cycle, so it
	// is the median over the same store states on every run.
	var heaps []float64
	ops, resets, secs, err := appendLoop(in, cfg.seconds, appendTraces,
		func(t int) error { return resetAppend(db, in, t) },
		func(t, j int) appendOp { return appendStep(db, in, t, j) },
		func(c int) error {
			if c%appendHeapEvery == appendHeapEvery-1 {
				heaps = append(heaps, liveHeapMB())
			}
			return nil
		})
	if err != nil {
		return result{}, nil, err
	}
	runtime.KeepAlive(db)
	_, post, err := timedSetups(setupReps/2, setupReps, setup)
	if err != nil {
		return result{}, nil, err
	}
	setupSecs = append(setupSecs, post...)

	failed, errs := verifyAppend(in, ops)
	us := make([]unit, len(secs))
	byN := map[int][]float64{}
	for _, op := range ops {
		u := &us[op.cycle]
		u.secs = secs[op.cycle]
		u.all = append(u.all, op.ms)
		u.writes = append(u.writes, op.writeMS)
		u.tops = append(u.tops, op.topMS)
		byN[appendN(op.j)] = append(byN[appendN(op.j)], op.ms)
	}
	m := map[string]metric{
		"setup_s":      {median(setupSecs), "s"},
		"live_heap_mb": {median(heaps), "MB"},
		"n_exp":        {classSlope(byN), "1"},
	}
	writeP50 := unitMetrics(us, m)
	info := map[string]any{"write_p50_ms": writeP50, "ops": len(ops), "cycles": len(secs), "setup_reps_s": setupSecs, "reset_p50_ms": median(resets), "errors": joinErrs(errs, 5)}
	return result{Correct: failed == 0, Attempted: len(ops), Failed: failed, Metrics: m}, info, nil
}

// appendLoop runs cycles until at least seconds have passed, in whole
// groups of every cycles (appendTraces: whole passes), and returns the
// ops, each reset's milliseconds and each cycle's measured seconds.
// Cycle c serves trace c mod appendTraces: reset stores the trace's
// prefix (timed apart from the cycle), settle runs, step serves op j,
// and after, when not nil, runs at the end of the cycle outside its
// measured time.
func appendLoop(in *appendInputs, seconds float64, every int, reset func(t int) error, step func(t, j int) appendOp, after func(c int) error) (ops []appendOp, resets, secs []float64, err error) {
	secs, err = runUnits(seconds, every, func(c int) (float64, error) {
		t := c % appendTraces
		t0 := time.Now()
		if err := reset(t); err != nil {
			return 0, fmt.Errorf("reset: %w", err)
		}
		resets = append(resets, msSince(t0))
		settle()
		t0 = time.Now()
		for j := 0; j < appendCycle; j++ {
			op := step(t, j)
			op.cycle = c
			ops = append(ops, op)
		}
		s := time.Since(t0).Seconds()
		if after == nil {
			return s, nil
		}
		return s, after(c)
	})
	return ops, resets, secs, err
}

func appendStep(db *lahar.DB, in *appendInputs, t, j int) appendOp {
	op := appendOp{trace: t, j: j}
	t0 := time.Now()
	_, op.err = db.AppendEvents("s", in.events[t][j])
	t1 := time.Now()
	if op.err == nil {
		op.res, op.err = db.TopK("s", "place", appendK)
	}
	op.writeMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	op.topMS = msSince(t1)
	op.ms = msSince(t0)
	return op
}

// verifyAppend checks sampled ops against a from-scratch store grown by
// the same appends (rank by rank, bit-identical scores), and every op
// against the first served ranking at its (trace, position): a cycle
// replays the same appends, so it must serve the same answers. The
// from-scratch stores of different traces run on parallel goroutines.
func verifyAppend(in *appendInputs, ops []appendOp) (int, []string) {
	served := make([]bool, len(in.prefix))
	for _, op := range ops {
		served[op.trace] = true
	}
	// want[t][j] is the reference at a sampled position, drained one
	// answer past appendK so that sameResults can tell a tie class cut at
	// rank k from one that ends there.
	want := make([][][]lahar.Result, len(in.prefix))
	refErrs := make([]error, len(in.prefix))
	forEach(len(in.prefix), func(t int) {
		if !served[t] {
			return
		}
		want[t] = make([][]lahar.Result, appendCycle)
		ref := lahar.New(lahar.WithFromScratchRanked())
		ref.RegisterTransducer("place", in.w.place)
		if refErrs[t] = ref.PutStream("s", in.prefix[t]); refErrs[t] != nil {
			return
		}
		for j := 0; j < appendCycle; j++ {
			if _, refErrs[t] = ref.AppendEvents("s", in.events[t][j]); refErrs[t] != nil {
				return
			}
			if j%appendVerifyEvery == appendVerifyEvery-1 {
				if want[t][j], refErrs[t] = ref.TopK("s", "place", appendK+1); refErrs[t] != nil {
					return
				}
			}
		}
	})
	failed := 0
	var errs []string
	fail := func(op appendOp, err error) {
		failed++
		errs = append(errs, fmt.Sprintf("trace %d op %d: %v", op.trace, op.j, err))
	}
	first := map[[2]int][]lahar.Result{}
	for _, op := range ops {
		key := [2]int{op.trace, op.j}
		switch {
		case op.err != nil:
			fail(op, op.err)
			continue
		case refErrs[op.trace] != nil:
			fail(op, fmt.Errorf("from-scratch reference: %w", refErrs[op.trace]))
			continue
		}
		if w := want[op.trace][op.j]; w != nil {
			if err := sameResults(op.res, w, appendK); err != nil {
				fail(op, fmt.Errorf("vs from-scratch: %w", err))
				continue
			}
		}
		if f, ok := first[key]; !ok {
			first[key] = op.res
		} else if !identical(op.res, f) {
			fail(op, fmt.Errorf("differs from an earlier cycle"))
		}
	}
	return failed, errs
}

// traceAppendRank is the traced run: one untraced pass (for
// trace.overhead and the gc.* counts), then at least half the window of
// the same cycles with each op's lahar calls timed and mirrored through
// core (ExtendValidated carrying the previous engine) and ranked
// (ExtendEnumerator carrying the previous direct drain).
func traceAppendRank(cfg config, in *appendInputs, db *lahar.DB, setupS float64) (result, map[string]any, error) {
	g0 := readGC()
	plain, _, plainSecs, err := appendLoop(in, cfg.seconds/2, appendTraces,
		func(t int) error { return resetAppend(db, in, t) },
		func(t, j int) appendOp { return appendStep(db, in, t, j) }, nil)
	if err != nil {
		return result{}, nil, err
	}
	gc := gcDelta(g0, readGC())

	probe, err := newLayerProbe(in.w, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return result{}, nil, err
	}
	x := &appendReplay{in: in, db: db, rt: newReplayTables(in.w.place), tr: newTracer(time.Now()),
		pr: core.PrepareTransducer(in.w.place, core.WithRankedWorkers(1))}
	s0 := db.Stats()
	// Whole groups of appendCountCycles cycles: the exact counters are
	// taken over the first group.
	traced, _, tracedSecs, err := appendLoop(in, cfg.seconds/2, appendCountCycles, x.reset, x.step, func(c int) error {
		if err := probe.run(x.tr, -1-c, x.m, lastEvent(x.m)); err != nil {
			x.fail(fmt.Sprintf("probe: %v", err))
		}
		return nil
	})
	if err != nil {
		return result{}, nil, err
	}
	s1 := db.Stats()
	if err := x.tr.write(cfg.spanDir, "append-rank", cfg.seed); err != nil {
		return result{}, nil, err
	}
	f2, e2 := verifyAppend(in, plain)
	failed := x.failed + f2
	errs := append(x.errs, e2...)

	n := float64(len(traced))
	counted := float64(appendCountCycles * appendCycle)
	m := newLayerMetrics()
	m.fromSpans(x.tr, probe)
	m.set("lahar.extensions_per_op", float64(x.counts.Extensions)/counted)
	m.set("lahar.misses_per_op", float64(s1.Misses-s0.Misses)/n)
	m.set("lahar.invalidations_per_op", float64(s1.Invalidations-s0.Invalidations)/n)
	m.set("lahar.hit_ratio", hitRatio(s0, s1))
	m.set("ranked.delay_exp", delayExp(x.tr, x.opN))
	m.set("ranked.reused_per_op", float64(x.counts.RankedReused)/counted)
	m.set("ranked.reseeded_per_op", float64(x.counts.RankedReseeded)/counted)
	m.set("ranked.handles_skipped_per_op", float64(x.counts.RankedHandlesSkipped)/counted)
	m.set("trace.overhead", overhead(len(plain), sum(plainSecs), len(traced), sum(tracedSecs)))
	gc.perOp(m, len(plain))
	x.tr.addLayerMetrics(m)
	info := map[string]any{"setup_s": setupS, "ops": len(plain), "traced_ops": len(traced), "errors": joinErrs(errs, 5)}
	return result{Correct: failed == 0, Attempted: len(plain) + len(traced), Failed: failed, Metrics: m}, info, nil
}

// appendReplay is the traced append-rank op: the lahar calls timed, then
// the same append replayed through markov (Sequence.Extended), core (a
// carried engine) and ranked (a carried enumerator), each replay checked
// against the lahar answers.
type appendReplay struct {
	in  *appendInputs
	db  *lahar.DB
	rt  replayTables
	tr  *tracer
	pr  *core.Prepared
	opN []int // opN[op] is the stream length op ranked over
	// cycles counts the resets; m, eng and en are the mirrors' stream,
	// engine and enumerator.
	cycles int
	m      *markov.Sequence
	eng    *core.Engine
	en     *ranked.Enumerator
	// counts sums the per-op Stats deltas (never across a reset) of the
	// first appendCountCycles cycles: a fixed set of traces, so the counts
	// repeat exactly from run to run.
	counts lahar.CacheStats
	failed int
	errs   []string
}

func (x *appendReplay) fail(msg string) {
	x.failed++
	x.errs = append(x.errs, msg)
}

// reset stores trace t's drained prefix and starts the mirrors from the
// same drained prefix.
func (x *appendReplay) reset(t int) error {
	ctx := context.Background()
	x.cycles++
	if err := resetAppend(x.db, x.in, t); err != nil {
		return err
	}
	x.m = x.in.prefix[t]
	var err error
	if x.eng, err = x.pr.ExtendValidated(nil, x.m); err != nil {
		return err
	}
	if _, err := x.eng.TopKCtx(ctx, appendK); err != nil {
		return err
	}
	x.en = ranked.NewEnumerator(x.rt.pt, x.m, ranked.WithTables(x.rt.nt), ranked.WithWorkers(1), ranked.WithExtendable())
	for i := 0; i < appendK; i++ {
		if _, _, err := x.en.NextCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (x *appendReplay) step(t, j int) appendOp {
	ctx := context.Background()
	tr, db := x.tr, x.db
	op := len(x.opN)
	x.opN = append(x.opN, appendN(j))
	rec := appendOp{trace: t, j: j}
	root := tr.begin("op", op, -1)
	before := db.Stats()
	var err error
	tr.do("lahar.append", op, root, func() { _, err = db.AppendEvents("s", x.in.events[t][j]) })
	if err == nil {
		tr.do("lahar.topk", op, root, func() { rec.res, err = db.TopK("s", "place", appendK) })
	}
	after := db.Stats()
	if x.cycles <= appendCountCycles {
		x.counts.Extensions += after.Extensions - before.Extensions
		x.counts.RankedReused += after.RankedReused - before.RankedReused
		x.counts.RankedReseeded += after.RankedReseeded - before.RankedReseeded
		x.counts.RankedHandlesSkipped += after.RankedHandlesSkipped - before.RankedHandlesSkipped
	}
	tr.do("markov.extend", op, root, func() {
		for _, ev := range x.in.events[t][j] {
			if err != nil {
				return
			}
			x.m, err = x.m.Extended([][][]float64{ev})
		}
	})
	var rest []core.Answer
	if err == nil {
		old := x.eng
		tr.do("core.carry", op, root, func() { x.eng, err = x.pr.ExtendValidated(old, x.m) })
	}
	if err == nil {
		tr.do("core.ttfa", op, root, func() { _, err = x.eng.TopKCtx(ctx, 1) })
	}
	if err == nil {
		tr.do("core.rest", op, root, func() { rest, err = x.eng.TopKCtx(ctx, appendK) })
	}
	var direct []ranked.Answer
	if err == nil {
		direct, err = x.rt.extendDrain(tr, op, root, &x.en, x.m, appendK)
	}
	tr.end(root)
	if err == nil && (!identical(toResults(rest), rec.res) || !identical(rankedResults(direct), rec.res)) {
		err = fmt.Errorf("core or ranked replay differs from the lahar answers")
	}
	if err != nil {
		x.fail(fmt.Sprintf("trace %d op %d: %v", t, j, err))
	}
	return rec
}

// extendDrain carries the direct ranked enumerator *en across the append
// to m (ranked.ExtendEnumerator, as core does on a carry) and drains k
// answers, timing each delay.
func (rt replayTables) extendDrain(tr *tracer, op, parent int, en **ranked.Enumerator, m *markov.Sequence, k int) ([]ranked.Answer, error) {
	id := tr.begin("ranked.drain", op, parent)
	defer tr.end(id)
	tr.do("ranked.extend", op, id, func() {
		ne, ok := ranked.ExtendEnumerator(*en, m, 1)
		if !ok {
			ne = ranked.NewEnumerator(rt.pt, m, ranked.WithTables(rt.nt), ranked.WithWorkers(1), ranked.WithExtendable())
		}
		*en = ne
	})
	return rt.next(tr, op, id, *en, k)
}
