package main

import (
	"context"
	"fmt"
	"math/rand"

	"markovseq/internal/automata"
	"markovseq/internal/core"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/textgen"
	"markovseq/internal/transducer"
)

// layerProbe times every layer entry point of the per-layer table once
// on a stream a traced run is serving, in a store of its own. A traced
// run probes once per schedule unit. The probe's spans carry the prefix
// "probe." and are read only for the metrics the workload's own ops
// leave empty. So every per-layer time is measured on every workload's
// inputs, including the layers its ops bypass.
type layerProbe struct {
	place *transducer.Transducer
	rt    replayTables
	// docEng is the plain name extractor bound to a noisy document, and
	// docName the answer whose confidence the probe asks for.
	docEng   *core.Engine
	docName  []automata.Symbol
	windowUS []float64
}

func newLayerProbe(w rfidWorld, rng *rand.Rand) (*layerProbe, error) {
	ab := textgen.Alphabet()
	doc := textgen.Generate(6, 12, 5, rng)
	docEng, err := core.PrepareSProjector(textgen.NameExtractor(ab), false).
		BindValidated(textgen.Noisy(ab, doc.Text, serveConfused, rng))
	if err != nil {
		return nil, err
	}
	return &layerProbe{
		place:   w.place,
		rt:      newReplayTables(w.place),
		docEng:  docEng,
		docName: textgen.ParseString(ab, doc.Names[0]),
	}, nil
}

// run probes m, with ev as the event appended to it.
func (p *layerProbe) run(tr *tracer, op int, m *markov.Sequence, ev lahar.Event) (err error) {
	ctx := context.Background()
	tr.prefix = "probe."
	defer func() { tr.prefix = "" }()
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	step := func(name string, fn func() error) {
		if err == nil {
			tr.do(name, op, root, func() { err = fn() })
		}
	}
	db := lahar.New()
	db.RegisterTransducer("place", p.place)
	var top []lahar.Result
	step("lahar.put", func() error { return db.PutStream("p", m) })
	step("lahar.topk", func() (e error) { top, e = db.TopK("p", "place", coldK); return e })
	if err == nil && len(top) == 0 {
		return fmt.Errorf("probe: no answers")
	}
	step("lahar.conf", func() (e error) { _, e = db.Confidence("p", "place", top[0].Output, 0); return e })
	var windows []lahar.WindowResult
	step("lahar.slide", func() (e error) {
		windows, e = db.SlidingTopK("p", "place", serveWindow, 1, serveSlideK)
		return e
	})
	if err == nil && len(windows) > 0 {
		p.windowUS = append(p.windowUS, tr.spans[len(tr.spans)-1].ms()*1000/float64(len(windows)))
	}
	step("lahar.append", func() (e error) { _, e = db.AppendEvents("p", []lahar.Event{ev}); return e })

	var grown *markov.Sequence
	step("markov.validate", m.Validate)
	step("markov.extend", func() (e error) { grown, e = m.Extended([][][]float64{ev}); return e })

	var pr *core.Prepared
	var eng, carried *core.Engine
	step("core.prepare", func() error { pr = core.PrepareTransducer(p.place, core.WithRankedWorkers(1)); return nil })
	step("core.bind", func() (e error) { eng, e = pr.ExtendValidated(nil, m); return e })
	step("core.ttfa", func() (e error) { _, e = eng.TopKCtx(ctx, 1); return e })
	step("core.rest", func() (e error) { _, e = eng.TopKCtx(ctx, coldK); return e })
	step("core.hit", func() (e error) { _, e = eng.TopKCtx(ctx, coldK); return e })
	step("core.conf_det", func() (e error) { _, e = eng.ConfidenceCtx(ctx, top[0].Output, 0); return e })
	step("core.carry", func() (e error) { carried, e = pr.ExtendValidated(eng, grown); return e })
	step("core.rest", func() (e error) { _, e = carried.TopKCtx(ctx, coldK); return e })
	step("core.conf_sproj", func() (e error) { _, e = p.docEng.ConfidenceCtx(ctx, p.docName, 0); return e })
	if err == nil {
		_, err = p.rt.drain(tr, op, root, m, coldK)
	}
	if err == nil {
		_, err = p.rt.kernelCalls(tr, op, root, m, top[0].Output)
	}
	return err
}

// lastEvent is the final transition of m, a valid event to append to it.
func lastEvent(m *markov.Sequence) lahar.Event { return lahar.Event(m.TransAt(m.Len() - 1)) }
