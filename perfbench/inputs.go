package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"markovseq/internal/automata"
	"markovseq/internal/hmm"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
	"markovseq/internal/transducer"
)

// rfidWorld is the RFID fixture every workload shares: the Hospital(4,2)
// floorplan under DefaultNoise, queried by the "lab" place transducer.
type rfidWorld struct {
	hmm   *hmm.Model
	place *transducer.Transducer
}

func newRFIDWorld() rfidWorld {
	f := rfid.Hospital(4, 2)
	return rfidWorld{hmm: rfid.BuildHMM(f, rfid.DefaultNoise), place: rfid.PlaceTransducer(f, "lab")}
}

// trace samples and conditions one RFID trace of length n.
func (w rfidWorld) trace(n int, rng *rand.Rand) (*markov.Sequence, error) {
	trc, err := w.traceFull(n, rng)
	if err != nil {
		return nil, err
	}
	return trc.Seq, nil
}

// traceFull is trace with the hidden path kept.
func (w rfidWorld) traceFull(n int, rng *rand.Rand) (*rfid.Trace, error) {
	trc, err := rfid.Simulate(w.hmm, n, rng)
	if err != nil {
		return nil, fmt.Errorf("rfid trace n=%d: %w", n, err)
	}
	return trc, nil
}

// eventsOf converts full's transition rows [from, to) into append events
// (appending TransAt(L) grows a length-L prefix to L+1).
func eventsOf(full *markov.Sequence, from, to int) []lahar.Event {
	out := make([]lahar.Event, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, lahar.Event(full.TransAt(i)))
	}
	return out
}

// sameResults compares served top-k answers with a reference ranking
// drained one answer further (k+1) where the reference has that many.
// Scores must agree bit for bit at every rank, and the answers of each
// exactly tied score class must agree as a set. The one exception is a
// tie class that the k-th rank cuts, which the reference shows by a
// (k+1)-th answer with the same score: which of its members fill the
// last ranks depends on tie-breaking, so it is compared by score only.
func sameResults(got, want []lahar.Result, k int) error {
	if n := min(k, len(want)); len(got) != n {
		return fmt.Errorf("got %d answers, want %d", len(got), n)
	}
	for i := range got {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: score %v, want %v", i+1, got[i].Score, want[i].Score)
		}
	}
	for i := 0; i < len(got); {
		j := i
		for j < len(got) && got[j].Score == got[i].Score {
			j++
		}
		cut := j == len(got) && len(want) > j && want[j].Score == got[i].Score
		if !cut && !sameSet(got[i:j], want[i:j]) {
			return fmt.Errorf("ranks %d..%d: answers differ within a tie class", i+1, j)
		}
		i = j
	}
	return nil
}

func sameSet(a, b []lahar.Result) bool {
	key := func(r lahar.Result) string { return fmt.Sprintf("%d|%s", r.Index, automata.StringKey(r.Output)) }
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	slices.Sort(ka)
	slices.Sort(kb)
	return slices.Equal(ka, kb)
}

// identical reports whether two rankings agree exactly: same answers in
// the same order with bit-identical scores.
func identical(got, want []lahar.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || !automata.EqualStrings(got[i].Output, want[i].Output) ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}
