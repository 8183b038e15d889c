package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/core"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/sproj"
	"markovseq/internal/textgen"
)

// serve-mix: a warm store holds a fleet of RFID streams and noisy text
// documents; two closed-loop clients (one per CPU) each run a seeded
// script of reads and writes over their own streams, and the store's
// worker pool has two workers. Each script is a period: it ends by
// resetting every stream it appended to (PutStream of the base trace,
// forcing a miss, then a TopK that re-warms the engine), so every period
// starts from the state set-up leaves and the cache counters repeat
// exactly per period. Clients meet at a barrier between periods.
var serveLens = []int{80, 160, 320}

const (
	serveClients  = 2
	servePerLen   = 2 // RFID streams per length class and client
	serveDocs     = 2 // text documents per client
	serveBatch    = 2 // events per append
	serveWindow   = 16
	serveSlideK   = 3
	servePlaceK   = 10
	serveDocK     = 5
	serveConfused = 0.1
	// serveSlideChecks is the number of windows of each SlidingTopK op
	// checked against a per-window drain.
	serveSlideChecks = 3
)

// mixCounts is the exact composition of one client's period: reads of
// warm engines, shuffled, followed by appendPairs (AppendEvents, then a
// TopK that rebinds and carries) spread over resetStreams streams, and
// one reset pair per appended stream (PutStream of the base trace, then
// a TopK that misses). Exact counts give every band of the latency
// distribution the same size on every seed. Sorted by latency, a period
// of 399 ops reads: TopK hits, TopKAcross hits and appends (ranks
// 0-322; p50, rank 199, sits among the place-query TopK hits), then the
// place-query confidences on the n=160 streams (322-382; p90, rank 359,
// sits here), then the indexed s-projector confidences and resets, and
// last the drains, windows and plain s-projector confidences.
var mixCounts = struct {
	topk, topkDoc, across, conf, confIdx, confPlain, slide, appendPairs int
	// resetStreams is the number of streams appended to, at most
	// servePerLen.
	resetStreams int
}{topk: 250, topkDoc: 60, across: 8, conf: 60, confIdx: 4, confPlain: 2, slide: 3, appendPairs: 4, resetStreams: 2}

// confClass is the length class Confidence asks about on RFID streams,
// and confLen the length of the answer it asks about: the Theorem 4.6 DP
// costs O(|o|·n), so both are fixed.
const (
	confClass = 1
	confLen   = 4
)

// mixStream is one stored stream of a client.
type mixStream struct {
	name string
	base *markov.Sequence
	// events holds the append reserve (RFID streams only), in batches.
	events [][]lahar.Event
	doc    bool
	n      int // base length class (RFID) or document length
	// target is the answer Confidence asks about; index its occurrence
	// for the indexed s-projector (documents only).
	target []automata.Symbol
	index  int
}

// mixOp is one scripted op. state is the number of batches appended to
// the stream since its last reset, as seen by the op.
type mixOp struct {
	kind   string
	stream int
	query  string
	state  int
}

type mixClient struct {
	streams []mixStream
	rfid    []string // names of the client's RFID streams, for TopKAcross
	script  []mixOp
}

type mixInputs struct {
	w       rfidWorld
	names   *sproj.SProjector
	clients []*mixClient
}

func genMixInputs(seed int64) (*mixInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &mixInputs{w: newRFIDWorld(), names: textgen.NameExtractor(textgen.Alphabet())}
	ab := textgen.Alphabet()
	for c := 0; c < serveClients; c++ {
		cl := &mixClient{}
		for _, n := range serveLens {
			for i := 0; i < servePerLen; i++ {
				trc, err := in.w.traceFull(n+mixCounts.appendPairs*serveBatch, rng)
				if err != nil {
					return nil, err
				}
				st := mixStream{name: fmt.Sprintf("c%d_n%d_%d", c, n, i), base: trc.Seq.Window(1, n), n: n}
				for b := 0; b < mixCounts.appendPairs; b++ {
					st.events = append(st.events, eventsOf(trc.Seq, n+b*serveBatch, n+(b+1)*serveBatch))
				}
				st.target, _ = in.w.place.TransduceDet(trc.Hidden[:n])
				st.target = st.target[:min(confLen, len(st.target))]
				cl.streams = append(cl.streams, st)
				cl.rfid = append(cl.rfid, st.name)
			}
		}
		for d := 0; d < serveDocs; d++ {
			doc := textgen.Generate(6, 12, 5, rng)
			m := textgen.Noisy(ab, doc.Text, serveConfused, rng)
			st := mixStream{name: fmt.Sprintf("c%d_doc%d", c, d), base: m, doc: true, n: m.Len()}
			st.target = textgen.ParseString(ab, doc.Names[0])
			if occ := in.names.Occurrences(textgen.ParseString(ab, doc.Text), st.target); len(occ) > 0 {
				st.index = occ[0]
			} else {
				return nil, fmt.Errorf("document %d of client %d: name %q has no occurrence", d, c, doc.Names[0])
			}
			cl.streams = append(cl.streams, st)
		}
		cl.script = genScript(cl, rng)
		in.clients = append(in.clients, cl)
	}
	return in, nil
}

// genScript draws one period of ops over the client's streams.
func genScript(cl *mixClient, rng *rand.Rand) []mixOp {
	nRFID := len(cl.rfid)
	mc := mixCounts
	var ops []mixOp
	add := func(kind string, n int, stream func() int, query func() string) {
		for i := 0; i < n; i++ {
			ops = append(ops, mixOp{kind: kind, stream: stream(), query: query()})
		}
	}
	rfidStream := func() int { return rng.Intn(nRFID) }
	docStream := func() int { return nRFID + rng.Intn(len(cl.streams)-nRFID) }
	place := func() string { return "place" }
	docQuery := func() string { return [2]string{"names", "names_idx"}[rng.Intn(2)] }
	add("topk", mc.topk, rfidStream, place)
	add("topk_doc", mc.topkDoc, docStream, docQuery)
	add("across", mc.across, rfidStream, place)
	add("conf", mc.conf, func() int { return confClass*servePerLen + rng.Intn(servePerLen) }, place)
	add("conf_doc", mc.confIdx, docStream, func() string { return "names_idx" })
	for i := 0; i < mc.confPlain; i++ {
		ops = append(ops, mixOp{kind: "conf_doc", stream: nRFID + i%(len(cl.streams)-nRFID), query: "names"})
	}
	// One SlidingTopK per length class (streams are stored class by class).
	for i := 0; i < mc.slide; i++ {
		c := i % len(serveLens)
		ops = append(ops, mixOp{kind: "slide", stream: c*servePerLen + rng.Intn(servePerLen), query: "place"})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	// The written streams are the shortest class's, so the drains that
	// follow a write cost the same on every seed.
	written := rng.Perm(servePerLen)[:mc.resetStreams]
	state := make([]int, nRFID)
	for i := 0; i < mc.appendPairs; i++ {
		s := written[i%len(written)]
		state[s]++
		ops = append(ops, mixOp{kind: "append", stream: s, query: "place", state: state[s]},
			mixOp{kind: "topk", stream: s, query: "place", state: state[s]})
	}
	for _, s := range written {
		ops = append(ops, mixOp{kind: "put", stream: s, query: "place"}, mixOp{kind: "topk", stream: s, query: "place"})
	}
	return ops
}

// setupMix stores the fleet, prepares the queries, and warms every
// engine the scripts read, leaving the state each period starts from.
func setupMix(in *mixInputs) (*lahar.DB, error) {
	db := lahar.New(lahar.WithWorkers(serveClients))
	db.RegisterTransducer("place", in.w.place)
	db.RegisterSProjector("names", in.names, false)
	db.RegisterSProjector("names_idx", in.names, true)
	for _, cl := range in.clients {
		for _, st := range cl.streams {
			if err := db.PutStream(st.name, st.base); err != nil {
				return nil, err
			}
		}
	}
	for _, cl := range in.clients {
		for _, st := range cl.streams {
			queries := map[string]int{"place": servePlaceK}
			if st.doc {
				queries = map[string]int{"names": serveDocK, "names_idx": serveDocK}
			}
			for q, k := range queries {
				if _, err := db.TopK(st.name, q, k); err != nil {
					return nil, err
				}
			}
		}
	}
	return db, nil
}

// mixRec is one measured op with what it returned.
type mixRec struct {
	op      mixOp
	period  int
	ms      float64
	windows int
	res     []lahar.Result
	across  []lahar.StreamResult
	slides  []lahar.WindowResult
	conf    float64
	err     error
}

// mixStep runs one scripted op against the store.
func mixStep(db *lahar.DB, cl *mixClient, op mixOp) mixRec {
	r := mixRec{op: op}
	st := &cl.streams[op.stream]
	t0 := time.Now()
	switch op.kind {
	case "topk":
		r.res, r.err = db.TopK(st.name, "place", servePlaceK)
	case "topk_doc":
		r.res, r.err = db.TopK(st.name, op.query, serveDocK)
	case "across":
		r.across, r.err = db.TopKAcross(cl.rfid, "place", servePlaceK)
	case "conf":
		r.conf, r.err = db.Confidence(st.name, "place", st.target, 0)
	case "conf_doc":
		idx := 0
		if op.query == "names_idx" {
			idx = st.index
		}
		r.conf, r.err = db.Confidence(st.name, op.query, st.target, idx)
	case "slide":
		r.slides, r.err = db.SlidingTopK(st.name, "place", serveWindow, 1, serveSlideK)
		r.windows = len(r.slides)
	case "append":
		_, r.err = db.AppendEvents(st.name, st.events[op.state-1])
	case "put":
		r.err = db.PutStream(st.name, st.base)
	}
	r.ms = msSince(t0)
	return r
}

// mixLoop runs periods until at least seconds have passed, both clients
// concurrently, and returns each client's records and each period's
// measured seconds. A period is a whole pass over both scripts. step
// runs one op of client c; after, when not nil, runs at the end of each
// period, outside its measured time.
func mixLoop(in *mixInputs, seconds float64, step func(c int, op mixOp) mixRec, after func(p int)) ([][]mixRec, []float64) {
	recs := make([][]mixRec, len(in.clients))
	secs, _ := runUnits(seconds, 1, func(p int) (float64, error) {
		t0 := time.Now()
		var wg sync.WaitGroup
		for c, cl := range in.clients {
			wg.Add(1)
			go func(c int, cl *mixClient) {
				defer wg.Done()
				for _, op := range cl.script {
					r := step(c, op)
					r.period = p
					recs[c] = append(recs[c], r)
				}
			}(c, cl)
		}
		wg.Wait()
		s := time.Since(t0).Seconds()
		if after != nil {
			after(p)
		}
		return s, nil
	})
	return recs, secs
}

func runServeMix(cfg config) (result, map[string]any, error) {
	in, err := genMixInputs(cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	setup := func(int) (*lahar.DB, error) { return setupMix(in) }
	db, setupSecs, err := timedSetups(0, setupReps/2, setup)
	if err != nil {
		return result{}, nil, err
	}
	if cfg.trace {
		return traceServeMix(cfg, in, db, median(setupSecs))
	}
	settle()
	// Every period ends in the state set-up leaves; the live heap is read
	// at the end of the first, before the run's own records of later
	// periods add to it.
	var heap float64
	recs, secs := mixLoop(in, cfg.seconds, func(c int, op mixOp) mixRec { return mixStep(db, in.clients[c], op) }, func(p int) {
		if p == 0 {
			heap = liveHeapMB()
		}
	})
	runtime.KeepAlive(db)
	_, post, err := timedSetups(setupReps/2, setupReps, setup)
	if err != nil {
		return result{}, nil, err
	}
	setupSecs = append(setupSecs, post...)

	failed, attempted, errs := verifyMix(in, recs)
	us := make([]unit, len(secs))
	slides := map[int][]float64{}
	for c, rs := range recs {
		for _, r := range rs {
			u := &us[r.period]
			u.secs = secs[r.period]
			u.all = append(u.all, r.ms)
			switch r.op.kind {
			case "append", "put":
				u.writes = append(u.writes, r.ms)
			case "topk", "topk_doc":
				u.tops = append(u.tops, r.ms)
			case "slide":
				n := in.clients[c].streams[r.op.stream].n
				slides[n] = append(slides[n], r.ms)
			}
		}
	}
	m := map[string]metric{
		"setup_s":      {median(setupSecs), "s"},
		"live_heap_mb": {heap, "MB"},
		"n_exp":        {classSlope(slides), "1"},
	}
	writeP50 := unitMetrics(us, m)
	info := map[string]any{"write_p50_ms": writeP50, "ops": attempted, "periods": len(secs), "setup_reps_s": setupSecs, "errors": joinErrs(errs, 5)}
	for kind, v := range byKind(recs) {
		info["p50_ms_"+kind] = median(v)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, info, nil
}

func byKind(recs [][]mixRec) map[string][]float64 {
	out := map[string][]float64{}
	for _, rs := range recs {
		for _, r := range rs {
			out[r.op.kind] = append(out[r.op.kind], r.ms)
		}
	}
	return out
}

// mixVerifier memoizes reference evaluations per (stream, state): the
// scripts repeat every period, so each distinct state is evaluated once.
type mixVerifier struct {
	in    *mixInputs
	place *core.Prepared
	seqs  map[string]*markov.Sequence
	tops  map[string][]lahar.Result
	confs map[string]float64
}

func (v *mixVerifier) seq(st *mixStream, state int) (*markov.Sequence, error) {
	key := fmt.Sprintf("%s/%d", st.name, state)
	if m, ok := v.seqs[key]; ok {
		return m, nil
	}
	m := st.base
	if state > 0 {
		prev, err := v.seq(st, state-1)
		if err != nil {
			return nil, err
		}
		for _, ev := range st.events[state-1] {
			if m, err = prev.Extended([][][]float64{ev}); err != nil {
				return nil, err
			}
			prev = m
		}
	}
	v.seqs[key] = m
	return m, nil
}

// top is core's pruned drain of the place query at a stream state, one
// answer past servePlaceK (see sameResults).
func (v *mixVerifier) top(st *mixStream, state int) ([]lahar.Result, error) {
	key := fmt.Sprintf("%s/%d", st.name, state)
	if r, ok := v.tops[key]; ok {
		return r, nil
	}
	m, err := v.seq(st, state)
	if err != nil {
		return nil, err
	}
	eng, err := v.place.Bind(m)
	if err != nil {
		return nil, err
	}
	r := toResults(eng.TopK(servePlaceK + 1))
	v.tops[key] = r
	return r, nil
}

// conf is the direct DP's confidence of the stream's target at a state.
func (v *mixVerifier) conf(st *mixStream, state int, query string) (float64, error) {
	key := fmt.Sprintf("%s/%d/%s", st.name, state, query)
	if c, ok := v.confs[key]; ok {
		return c, nil
	}
	m, err := v.seq(st, state)
	if err != nil {
		return 0, err
	}
	var c float64
	switch query {
	case "place":
		c = conf.Det(v.in.w.place, m, st.target)
	case "names":
		c = v.in.names.Confidence(m, st.target)
	case "names_idx":
		c = v.in.names.IndexedConfidence(m, st.target, st.index)
	}
	v.confs[key] = c
	return c, nil
}

// verifyMix checks every read: place rankings against core's pruned
// drain of the same stream state, TopKAcross scores against the merge of
// those drains, Confidence against the direct DPs (Theorem 4.6 for the
// place query, Theorems 5.5 and 5.8 for the name extractor), document
// rankings against the first served ranking, and sampled SlidingTopK
// windows against per-window drains.
func verifyMix(in *mixInputs, recs [][]mixRec) (failed, attempted int, errs []string) {
	v := &mixVerifier{in: in, place: core.PrepareTransducer(in.w.place), seqs: map[string]*markov.Sequence{}, tops: map[string][]lahar.Result{}, confs: map[string]float64{}}
	docFirst := map[string][]lahar.Result{}
	for c, rs := range recs {
		cl := in.clients[c]
		state := make([]int, len(cl.streams))
		for i, r := range rs {
			attempted++
			st := &cl.streams[r.op.stream]
			switch r.op.kind {
			case "append":
				state[r.op.stream] = r.op.state
			case "put":
				state[r.op.stream] = 0
			}
			err := r.err
			if err == nil {
				err = v.check(cl, st, state, r, docFirst, i)
			}
			if err != nil {
				failed++
				errs = append(errs, fmt.Sprintf("client %d op %d (%s %s): %v", c, i, r.op.kind, st.name, err))
			}
		}
	}
	return failed, attempted, errs
}

func (v *mixVerifier) check(cl *mixClient, st *mixStream, state []int, r mixRec, docFirst map[string][]lahar.Result, i int) error {
	s := state[r.op.stream]
	switch r.op.kind {
	case "topk":
		want, err := v.top(st, s)
		if err != nil {
			return err
		}
		return sameResults(r.res, want, servePlaceK)
	case "topk_doc":
		key := st.name + "/" + r.op.query
		if f, ok := docFirst[key]; ok && !identical(r.res, f) {
			return fmt.Errorf("ranking changed on an unchanged document")
		}
		docFirst[key] = r.res
		if len(r.res) == 0 {
			return fmt.Errorf("no answers")
		}
	case "across":
		var merged []float64
		for j, name := range cl.rfid {
			want, err := v.top(&cl.streams[j], state[j])
			if err != nil {
				return err
			}
			if cl.streams[j].name != name {
				return fmt.Errorf("stream order")
			}
			for _, w := range want[:min(servePlaceK, len(want))] {
				merged = append(merged, w.Score)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(merged)))
		if len(r.across) != min(servePlaceK, len(merged)) {
			return fmt.Errorf("got %d answers, want %d", len(r.across), min(servePlaceK, len(merged)))
		}
		for j, a := range r.across {
			if math.Float64bits(a.Score) != math.Float64bits(merged[j]) {
				return fmt.Errorf("rank %d: score %v, want %v", j+1, a.Score, merged[j])
			}
		}
	case "conf", "conf_doc":
		want, err := v.conf(st, s, r.op.query)
		if err != nil {
			return err
		}
		if math.Abs(r.conf-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("confidence %v, direct DP %v", r.conf, want)
		}
	case "slide":
		m, err := v.seq(st, s)
		if err != nil {
			return err
		}
		if want := m.Len() - serveWindow + 1; len(r.slides) != want {
			return fmt.Errorf("got %d windows, want %d", len(r.slides), want)
		}
		for c := 0; c < serveSlideChecks; c++ {
			w := r.slides[(i*7919+c*len(r.slides)/serveSlideChecks)%len(r.slides)]
			eng, err := v.place.BindValidated(m.Window(w.Start, w.End))
			if err != nil {
				return err
			}
			if err := sameResults(w.Top, toResults(eng.TopK(serveSlideK+1)), serveSlideK); err != nil {
				return fmt.Errorf("window %d..%d: %w", w.Start, w.End, err)
			}
		}
	}
	return nil
}

// sameConfidence compares a replayed confidence with the served one:
// bit for bit, except for the plain s-projector (Theorem 5.5), whose DP
// sums its subset states in map order and so differs between any two
// calls in the last bits; there the values must agree to 1e-12.
func sameConfidence(query string, got, want float64) bool {
	if query == "names" {
		return math.Abs(got-want) <= 1e-12*math.Abs(want)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// traceServeMix is the traced run: at least half the window untraced,
// then at least the other half of the same periods with each op's lahar
// call timed, cache hits mirrored by a memoized core engine and
// confidences by core's engine DPs.
func traceServeMix(cfg config, in *mixInputs, db *lahar.DB, setupS float64) (result, map[string]any, error) {
	ctx := context.Background()
	settle()
	g0 := readGC()
	s0 := db.Stats()
	plain, plainSecs := mixLoop(in, cfg.seconds/2, func(c int, op mixOp) mixRec { return mixStep(db, in.clients[c], op) }, nil)
	s1 := db.Stats()
	gc := gcDelta(g0, readGC())
	plainOps := 0
	for _, rs := range plain {
		plainOps += len(rs)
	}

	prep := map[string]*core.Prepared{
		"place":     core.PrepareTransducer(in.w.place, core.WithRankedWorkers(1)),
		"names":     core.PrepareSProjector(in.names, false, core.WithRankedWorkers(1)),
		"names_idx": core.PrepareSProjector(in.names, true, core.WithRankedWorkers(1)),
	}
	type mirror struct {
		m   *markov.Sequence
		eng *core.Engine
	}
	probe, err := newLayerProbe(in.w, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return result{}, nil, err
	}
	t0 := time.Now()
	tracers := make([]*tracer, len(in.clients))
	mirrors := make([]map[string]*mirror, len(in.clients))
	errs := make([][]string, len(in.clients))
	for c := range in.clients {
		tracers[c] = newTracer(t0)
		mirrors[c] = map[string]*mirror{}
	}
	// engine returns client c's core engine for (stream, query) at the
	// stream's current snapshot, rebinding it (untimed) when the snapshot
	// moved: carried from the previous engine across an append, as lahar
	// does, and built afresh after a replace.
	engine := func(c int, name, q string) (*core.Engine, error) {
		m, err := db.Stream(name)
		if err != nil {
			return nil, err
		}
		key := name + "/" + q
		mr := mirrors[c][key]
		if mr == nil || mr.m != m {
			var old *core.Engine
			if mr != nil && m.Len() > mr.m.Len() {
				old = mr.eng
			}
			eng, err := prep[q].ExtendValidated(old, m)
			if err != nil {
				return nil, err
			}
			mr = &mirror{m: m, eng: eng}
			mirrors[c][key] = mr
		}
		return mr.eng, nil
	}
	opIDs := make([]int, len(in.clients))
	traced, tracedSecs := mixLoop(in, cfg.seconds/2, func(c int, op mixOp) mixRec {
		tr := tracers[c]
		id := opIDs[c]*len(in.clients) + c
		cl := in.clients[c]
		opIDs[c]++
		st := &cl.streams[op.stream]
		root := tr.begin("op", id, -1)
		defer tr.end(root)
		var r mixRec
		tr.do("lahar."+op.kind, id, root, func() { r = mixStep(db, cl, op) })
		if r.err != nil {
			return r
		}
		var err error
		switch op.kind {
		case "topk", "topk_doc":
			var eng *core.Engine
			if eng, err = engine(c, st.name, op.query); err != nil {
				break
			}
			k := servePlaceK
			if op.kind == "topk_doc" {
				k = serveDocK
			}
			if _, err = eng.TopKCtx(ctx, k); err != nil {
				break
			}
			var got []core.Answer
			tr.do("core.hit", id, root, func() { got, err = eng.TopKCtx(ctx, k) })
			if err == nil && !identical(toResults(got), r.res) {
				err = fmt.Errorf("core engine differs from the lahar answers")
			}
		case "conf", "conf_doc":
			var eng *core.Engine
			if eng, err = engine(c, st.name, op.query); err != nil {
				break
			}
			idx := 0
			if op.query == "names_idx" {
				idx = st.index
			}
			var got float64
			span := "core.conf_det"
			if op.kind == "conf_doc" {
				span = "core.conf_sproj"
			}
			tr.do(span, id, root, func() { got, err = eng.ConfidenceCtx(ctx, st.target, idx) })
			if err == nil && !sameConfidence(op.query, got, r.conf) {
				err = fmt.Errorf("core confidence %v differs from lahar's %v", got, r.conf)
			}
		}
		if err != nil {
			errs[c] = append(errs[c], fmt.Sprintf("%s %s: %v", op.kind, st.name, err))
		}
		return r
	}, func(p int) {
		// Once per period, on client 0's first stream as it stands.
		m, err := db.Stream(in.clients[0].streams[0].name)
		if err == nil {
			err = probe.run(tracers[0], -1-p, m, lastEvent(m))
		}
		if err != nil {
			errs[0] = append(errs[0], fmt.Sprintf("probe: %v", err))
		}
	})
	tr := tracers[0]
	for _, other := range tracers[1:] {
		tr.merge(other)
	}
	if err := tr.write(cfg.spanDir, "serve-mix", cfg.seed); err != nil {
		return result{}, nil, err
	}
	failed, attempted, verrs := verifyMix(in, plain)
	f2, a2, verrs2 := verifyMix(in, traced)
	failed += f2
	attempted += a2
	verrs = append(verrs, verrs2...)
	for _, e := range errs {
		failed += len(e)
		verrs = append(verrs, e...)
	}

	n := float64(plainOps)
	m := newLayerMetrics()
	m.fromSpans(tr, probe)
	kinds := byKind(plain)
	m.set("lahar.conf_ms", median(append(kinds["conf"], kinds["conf_doc"]...)))
	m.set("lahar.slide_ms", median(kinds["slide"]))
	var perWindow []float64
	for _, rs := range plain {
		for _, r := range rs {
			if r.op.kind == "slide" && r.windows > 0 {
				perWindow = append(perWindow, r.ms*1000/float64(r.windows))
			}
		}
	}
	m.set("lahar.window_us", median(perWindow))
	m.set("lahar.hit_ratio", hitRatio(s0, s1))
	m.set("lahar.misses_per_op", float64(s1.Misses-s0.Misses)/n)
	m.set("lahar.extensions_per_op", float64(s1.Extensions-s0.Extensions)/n)
	m.set("lahar.invalidations_per_op", float64(s1.Invalidations-s0.Invalidations)/n)
	ss := db.ServeStats()
	m.set("lahar.shed_ratio", ratio(ss.Shed+ss.DeadlineMisses+ss.Cancelled, ss.Served+ss.Shed))
	tracedOps := 0
	for _, rs := range traced {
		tracedOps += len(rs)
	}
	m.set("trace.overhead", overhead(plainOps, sum(plainSecs), tracedOps, sum(tracedSecs)))
	gc.perOp(m, plainOps)
	tr.addLayerMetrics(m)
	info := map[string]any{"setup_s": setupS, "ops": plainOps, "traced_ops": tracedOps, "errors": joinErrs(verrs, 5)}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, info, nil
}
