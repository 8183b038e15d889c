package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/core"
	"markovseq/internal/kernel"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
	"markovseq/internal/transducer"
)

// cold-rank: every op replaces a stream (a version bump, so the cached
// engine is dropped) and asks for its top 10 answers, so every op pays a
// full ranked drain. Five length classes double up to n=800. A round
// serves coldWeights[c] ops of class c, each on a trace of its own, in a
// seeded order, and a pass serves coldRounds rounds. Sorted by latency, a
// round of 35 ops holds the n=50 and n=100 ops at ranks 0-6, n=200 at
// 6-26 (p50, rank 17.5, falls in the middle), n=400 at 26-34 (p90, rank
// 31.5, falls here) and the n=800 op at 34-35. The weights put most of a
// run's ops, and so most of its distinct traces, in the two classes the
// percentiles read, which keeps them steady across seeds.
var (
	coldClasses = []int{50, 100, 200, 400, 800}
	coldWeights = []int{3, 3, 20, 8, 1}
)

const (
	// coldRounds is the number of rounds of distinct traces: one pass.
	coldRounds = 6
	coldK      = 10
)

// coldSlot is one op of a round: trace i of class c.
type coldSlot struct{ c, i int }

type coldInputs struct {
	w rfidWorld
	// seqs[c][i] is trace i of class c; rounds[r] is round r's ops.
	seqs   [][]*markov.Sequence
	rounds [][]coldSlot
}

// coldName is the stream of class c: each op stores the next trace of
// its class under the class's one name, so at most one engine per class
// is live and the store's footprint does not grow with the trace count.
func coldName(c int) string { return fmt.Sprintf("n%d", coldClasses[c]) }

func genColdInputs(seed int64) (*coldInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &coldInputs{w: newRFIDWorld()}
	for c, n := range coldClasses {
		var row []*markov.Sequence
		for i := 0; i < coldWeights[c]*coldRounds; i++ {
			m, err := in.w.trace(n, rng)
			if err != nil {
				return nil, err
			}
			row = append(row, m)
		}
		in.seqs = append(in.seqs, row)
	}
	for r := 0; r < coldRounds; r++ {
		var round []coldSlot
		for c, w := range coldWeights {
			for i := 0; i < w; i++ {
				round = append(round, coldSlot{c, r*w + i})
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		in.rounds = append(in.rounds, round)
	}
	return in, nil
}

// round returns the ops of measured round r; round 0 is set-up's.
func (in *coldInputs) round(r int) []coldSlot { return in.rounds[(r+1)%coldRounds] }

// setupCold builds the store: the query prepared, and a warm-up that
// stores trace rep of every class and drains it. Each timed set-up rep
// warms up on traces of its own, so the median over reps does not hinge
// on one n=800 trace's content.
func setupCold(in *coldInputs, rep int) (*lahar.DB, error) {
	db := lahar.New()
	db.RegisterTransducer("place", in.w.place)
	for c := range coldClasses {
		if err := db.PutStream(coldName(c), in.seqs[c][rep%len(in.seqs[c])]); err != nil {
			return nil, err
		}
		if _, err := db.TopK(coldName(c), "place", coldK); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// coldOp is one measured op.
type coldOp struct {
	round, class, trace int
	ms, putMS, topMS    float64
	res                 []lahar.Result
	err                 error
}

func runColdRank(cfg config) (result, map[string]any, error) {
	in, err := genColdInputs(cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	setup := func(r int) (*lahar.DB, error) { return setupCold(in, r) }
	db, setupSecs, err := timedSetups(0, setupReps/2, setup)
	if err != nil {
		return result{}, nil, err
	}
	if cfg.trace {
		return traceColdRank(cfg, in, db, median(setupSecs))
	}
	// The live heap is read after every round, so it is the median over
	// the same store states on every run.
	var heaps []float64
	ops, secs, err := coldLoop(in, cfg.seconds, coldRounds,
		func(sl coldSlot) coldOp { return coldStep(db, in, sl) },
		func(int) error { heaps = append(heaps, liveHeapMB()); return nil })
	if err != nil {
		return result{}, nil, err
	}
	runtime.KeepAlive(db)
	_, post, err := timedSetups(setupReps/2, setupReps, setup)
	if err != nil {
		return result{}, nil, err
	}
	setupSecs = append(setupSecs, post...)

	failed, errs := verifyCold(in, ops)
	us := make([]unit, len(secs))
	byN := map[int][]float64{}
	for _, op := range ops {
		u := &us[op.round]
		u.secs = secs[op.round]
		u.all = append(u.all, op.ms)
		u.writes = append(u.writes, op.putMS)
		u.tops = append(u.tops, op.topMS)
		byN[coldClasses[op.class]] = append(byN[coldClasses[op.class]], op.ms)
	}
	m := map[string]metric{
		"setup_s":      {median(setupSecs), "s"},
		"live_heap_mb": {median(heaps), "MB"},
		"n_exp":        {classSlope(byN), "1"},
	}
	writeP50 := unitMetrics(us, m)
	info := map[string]any{"write_p50_ms": writeP50, "ops": len(ops), "rounds": len(secs), "setup_reps_s": setupSecs, "errors": joinErrs(errs, 5)}
	for n, v := range byN {
		info[fmt.Sprintf("p50_ms_n%d", n)] = median(v)
	}
	return result{Correct: failed == 0, Attempted: len(ops), Failed: failed, Metrics: m}, info, nil
}

// coldLoop runs rounds until at least seconds have passed, in whole
// groups of every rounds (coldRounds: whole passes), and returns the ops
// with each round's measured seconds. Each round starts after settle.
// step serves one op; after, when not nil, runs at the end of each
// round, outside its measured time.
func coldLoop(in *coldInputs, seconds float64, every int, step func(sl coldSlot) coldOp, after func(r int) error) ([]coldOp, []float64, error) {
	var ops []coldOp
	secs, err := runUnits(seconds, every, func(r int) (float64, error) {
		settle()
		t0 := time.Now()
		for _, sl := range in.round(r) {
			op := step(sl)
			op.round = r
			ops = append(ops, op)
		}
		s := time.Since(t0).Seconds()
		if after == nil {
			return s, nil
		}
		return s, after(r)
	})
	return ops, secs, err
}

func coldStep(db *lahar.DB, in *coldInputs, sl coldSlot) coldOp {
	op := coldOp{class: sl.c, trace: sl.i}
	name := coldName(sl.c)
	t0 := time.Now()
	op.err = db.PutStream(name, in.seqs[sl.c][sl.i])
	t1 := time.Now()
	if op.err == nil {
		op.res, op.err = db.TopK(name, "place", coldK)
	}
	op.putMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	op.topMS = msSince(t1)
	op.ms = msSince(t0)
	return op
}

// verifyCold checks every served ranking against core's pruned Bind
// drain of the same trace (bit-identical scores) and the top answer's
// E_max against its exact confidence (Theorem 4.6 DP): E_max(o) ≤ conf(o).
func verifyCold(in *coldInputs, ops []coldOp) (int, []string) {
	pr := core.PrepareTransducer(in.w.place)
	idx := map[coldSlot]int{}
	var keys []coldSlot
	for _, op := range ops {
		sl := coldSlot{op.class, op.trace}
		if _, ok := idx[sl]; !ok {
			idx[sl] = len(keys)
			keys = append(keys, sl)
		}
	}
	// The reference drains one answer past coldK, so that sameResults can
	// tell a tie class cut at rank k from one that ends there.
	refs := make([][]lahar.Result, len(keys))
	refErrs := make([]error, len(keys))
	forEach(len(keys), func(i int) {
		eng, err := pr.Bind(in.seqs[keys[i].c][keys[i].i])
		if err != nil {
			refErrs[i] = fmt.Errorf("reference bind: %w", err)
			return
		}
		refs[i] = toResults(eng.TopK(coldK + 1))
	})
	checks := make([]error, len(ops))
	forEach(len(ops), func(i int) {
		op := ops[i]
		k := idx[coldSlot{op.class, op.trace}]
		if checks[i] = refErrs[k]; checks[i] == nil {
			checks[i] = coldCheck(in.w.place, in.seqs[op.class][op.trace], op, refs[k])
		}
	})
	failed := 0
	var errs []string
	for i, err := range checks {
		if err != nil {
			failed++
			errs = append(errs, fmt.Sprintf("%s trace %d: %v", coldName(ops[i].class), ops[i].trace, err))
		}
	}
	return failed, errs
}

func coldCheck(t *transducer.Transducer, m *markov.Sequence, op coldOp, want []lahar.Result) error {
	if op.err != nil {
		return op.err
	}
	if len(op.res) == 0 {
		return fmt.Errorf("no answers")
	}
	if err := sameResults(op.res, want, coldK); err != nil {
		return err
	}
	top := op.res[0]
	if c := conf.Det(t, m, top.Output); top.Score > c*(1+1e-12) {
		return fmt.Errorf("E_max %v exceeds confidence %v", top.Score, c)
	}
	return nil
}

func toResults(as []core.Answer) []lahar.Result {
	out := make([]lahar.Result, len(as))
	for i, a := range as {
		out[i] = lahar.Result{Output: a.Output, Index: a.Index, Score: a.Score}
	}
	return out
}

// rankedResults converts a direct ranked drain to lahar's scoring.
func rankedResults(as []ranked.Answer) []lahar.Result {
	out := make([]lahar.Result, len(as))
	for i, a := range as {
		out[i] = lahar.Result{Output: a.Output, Score: math.Exp(a.LogEmax)}
	}
	return out
}

// replayTables mirrors the production ranked mode of a lahar-served
// transducer query: the trimmed transducer and its flat tables.
type replayTables struct {
	pt *transducer.Transducer
	nt *kernel.NFATables
}

func newReplayTables(t *transducer.Transducer) replayTables {
	pt := transducer.Preprocess(t)
	return replayTables{pt: pt, nt: kernel.NewNFATables(pt)}
}

// drain replays a ranked drain the way lahar serves it (extendable mode,
// one worker), timing each answer's delay as a ranked.next span.
func (rt replayTables) drain(tr *tracer, op, parent int, m *markov.Sequence, k int) ([]ranked.Answer, error) {
	id := tr.begin("ranked.drain", op, parent)
	defer tr.end(id)
	en := ranked.NewEnumerator(rt.pt, m, ranked.WithTables(rt.nt), ranked.WithWorkers(1), ranked.WithExtendable())
	return rt.next(tr, op, id, en, k)
}

// next drains k answers from en, timing each delay as a ranked.next span.
func (rt replayTables) next(tr *tracer, op, parent int, en *ranked.Enumerator, k int) ([]ranked.Answer, error) {
	ctx := context.Background()
	var out []ranked.Answer
	for len(out) < k {
		var a ranked.Answer
		var ok bool
		var err error
		tr.do("ranked.next", op, parent, func() { a, ok, err = en.NextCtx(ctx) })
		if err != nil || !ok {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

// kernelCalls times the kernel entry points of a cold drain: the
// weight-pushed bounds, one unconstrained resolve, and the checkpoint
// aligned to the top answer. It returns the resolve's output.
func (rt replayTables) kernelCalls(tr *tracer, op, parent int, m *markov.Sequence, top []automata.Symbol) ([]automata.Symbol, error) {
	ctx := context.Background()
	v := m.View()
	var out []automata.Symbol
	var err error
	tr.do("kernel.bounds", op, parent, func() { kernel.NewBounds(rt.nt, v) })
	tr.do("kernel.resolve", op, parent, func() {
		out, _, _, _, _, err = kernel.ConstrainedViterbiCtx(ctx, rt.nt, v, transducer.Unconstrained(), nil)
	})
	if err != nil {
		return nil, err
	}
	tr.do("kernel.checkpoint", op, parent, func() { _, err = kernel.BuildCheckpointCtx(ctx, rt.nt, v, top, nil) })
	return out, err
}

// traceColdRank is the traced run: one untraced pass (for
// trace.overhead and the gc.* counts), then at least half the window of
// the same schedule, replayed with every layer call timed.
func traceColdRank(cfg config, in *coldInputs, db *lahar.DB, setupS float64) (result, map[string]any, error) {
	g0 := readGC()
	plain, plainSecs, err := coldLoop(in, cfg.seconds/2, coldRounds, func(sl coldSlot) coldOp { return coldStep(db, in, sl) }, nil)
	if err != nil {
		return result{}, nil, err
	}
	gc := gcDelta(g0, readGC())

	probe, err := newLayerProbe(in.w, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return result{}, nil, err
	}
	x := &coldReplay{in: in, db: db, rt: newReplayTables(in.w.place), tr: newTracer(time.Now())}
	s0 := db.Stats()
	traced, tracedSecs, err := coldLoop(in, cfg.seconds/2, 1, x.step, func(r int) error {
		// The probe runs on the round's last stream.
		last := in.round(r)[len(in.round(r))-1]
		m := in.seqs[last.c][last.i]
		if err := probe.run(x.tr, -1-r, m, lastEvent(m)); err != nil {
			x.fail(fmt.Sprintf("probe: %v", err))
		}
		return nil
	})
	if err != nil {
		return result{}, nil, err
	}
	s1 := db.Stats()
	if err := x.tr.write(cfg.spanDir, "cold-rank", cfg.seed); err != nil {
		return result{}, nil, err
	}
	f2, e2 := verifyCold(in, plain)
	failed := x.failed + f2
	errs := append(x.errs, e2...)

	n := float64(len(traced))
	m := newLayerMetrics()
	m.fromSpans(x.tr, probe)
	m.set("lahar.misses_per_op", float64(s1.Misses-s0.Misses)/n)
	m.set("lahar.invalidations_per_op", float64(s1.Invalidations-s0.Invalidations)/n)
	m.set("lahar.hit_ratio", hitRatio(s0, s1))
	m.set("ranked.delay_exp", delayExp(x.tr, x.opN))
	m.set("kernel.prune_ratio", ratio(x.pruned, x.pruned+x.visited))
	m.set("trace.overhead", overhead(len(plain), sum(plainSecs), len(traced), sum(tracedSecs)))
	gc.perOp(m, len(plain))
	x.tr.addLayerMetrics(m)
	info := map[string]any{"setup_s": setupS, "ops": len(plain), "traced_ops": len(traced), "errors": joinErrs(errs, 5)}
	return result{Correct: failed == 0, Attempted: len(plain) + len(traced), Failed: failed, Metrics: m}, info, nil
}

// coldReplay is the traced cold-rank op: the lahar calls timed, then the
// same drain replayed through markov, core, ranked and kernel, each
// replay checked against the lahar answers.
type coldReplay struct {
	in  *coldInputs
	db  *lahar.DB
	rt  replayTables
	tr  *tracer
	opN []int // opN[op] is the stream length op ranked over
	// pruned and visited sum the served engines' per-op deltas.
	pruned, visited uint64
	failed          int
	errs            []string
}

func (x *coldReplay) fail(msg string) {
	x.failed++
	x.errs = append(x.errs, msg)
}

func (x *coldReplay) step(sl coldSlot) coldOp {
	ctx := context.Background()
	tr, db, in := x.tr, x.db, x.in
	op := len(x.opN)
	m := in.seqs[sl.c][sl.i]
	name := coldName(sl.c)
	x.opN = append(x.opN, coldClasses[sl.c])
	rec := coldOp{class: sl.c, trace: sl.i}
	root := tr.begin("op", op, -1)
	var err error
	tr.do("lahar.put", op, root, func() { err = db.PutStream(name, m) })
	before := db.Stats()
	if err == nil {
		tr.do("lahar.topk", op, root, func() { rec.res, err = db.TopK(name, "place", coldK) })
	}
	after := db.Stats()
	x.pruned += after.RankedPrunedCells - before.RankedPrunedCells
	x.visited += after.RankedVisitedCells - before.RankedVisitedCells
	tr.do("markov.validate", op, root, func() {
		if verr := m.Validate(); verr != nil && err == nil {
			err = verr
		}
	})
	var pr *core.Prepared
	tr.do("core.prepare", op, root, func() { pr = core.PrepareTransducer(in.w.place, core.WithRankedWorkers(1)) })
	var eng *core.Engine
	if err == nil {
		tr.do("core.bind", op, root, func() { eng, err = pr.ExtendValidated(nil, m) })
	}
	var first, rest []core.Answer
	if err == nil {
		tr.do("core.ttfa", op, root, func() { first, err = eng.TopKCtx(ctx, 1) })
	}
	if err == nil {
		tr.do("core.rest", op, root, func() { rest, err = eng.TopKCtx(ctx, coldK) })
	}
	var direct []ranked.Answer
	if err == nil {
		direct, err = x.rt.drain(tr, op, root, m, coldK)
	}
	var resolved []automata.Symbol
	if err == nil && len(rec.res) > 0 {
		resolved, err = x.rt.kernelCalls(tr, op, root, m, rec.res[0].Output)
	}
	tr.end(root)
	served := rec.res
	switch {
	case err != nil:
	case len(first) != 1 || !identical(toResults(rest), served) || !identical(rankedResults(direct), served):
		err = fmt.Errorf("core or ranked replay differs from the lahar answers")
	case len(served) > 1 && served[0].Score != served[1].Score && !automata.EqualStrings(resolved, served[0].Output):
		// An exactly tied top may resolve to either answer.
		err = fmt.Errorf("kernel resolve differs from the top answer")
	}
	if err != nil {
		x.fail(fmt.Sprintf("%s trace %d: %v", name, sl.i, err))
	}
	return rec
}

// hitRatio is the share of engine requests between two Stats snapshots
// that the cache served without building or rebinding an engine.
func hitRatio(s0, s1 lahar.CacheStats) float64 {
	hits := s1.Hits - s0.Hits
	return ratio(hits, hits+s1.Misses-s0.Misses+s1.Extensions-s0.Extensions)
}

// overhead is what tracing costs: untraced ops/s over traced ops/s, − 1.
func overhead(plainOps int, plainS float64, tracedOps int, tracedS float64) float64 {
	return (float64(plainOps)/plainS)/(float64(tracedOps)/tracedS) - 1
}

// delayExp is the growth exponent of the per-answer ranked delay in n:
// the slope of log(median ranked.next) over the ops' stream lengths,
// where opN[op] is the length op ranked over.
func delayExp(tr *tracer, opN []int) float64 {
	byN := map[int][]float64{}
	for _, s := range tr.spans {
		if s.Name == "ranked.next" {
			byN[opN[s.Op]] = append(byN[opN[s.Op]], s.ms())
		}
	}
	return classSlope(byN)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
