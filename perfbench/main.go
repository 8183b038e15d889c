// Command perfbench is the repository's benchmark: it drives the lahar
// store (internal/lahar) through three seeded, closed-loop workloads from
// one process, checks every answer against an independent evaluation, and
// prints one JSON result line.
//
//	perfbench --workload cold-rank --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate run replays the workload's ops through the public
// functions of the lahar, core, ranked, kernel and markov packages, timed
// from outside, and the result carries the per-layer metrics. --workload
// all runs every workload in turn and prints each one's metrics. See
// README.md for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// spanDir is where a traced run writes its spans.
	spanDir string
}

// workload runs one workload and returns its result plus informational
// fields (not metrics) for the stability record.
type workload func(cfg config) (result, map[string]any, error)

var workloads = map[string]workload{
	"cold-rank":   runColdRank,
	"append-rank": runAppendRank,
	"serve-mix":   runServeMix,
}

func main() {
	name := flag.String("workload", "", "cold-rank, append-rank, serve-mix or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build/spans", "directory a traced run writes its spans to")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: *spanDir}
	if *name == "all" {
		os.Exit(runAll(cfg))
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, info, err := runWorkload(*name, w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printInfo(info)
	printResult(res)
}

// runWorkload runs w with host facts recorded around it.
func runWorkload(name string, w workload, cfg config) (result, map[string]any, error) {
	steal0 := stealTicks()
	res, info, err := w(cfg)
	if err != nil {
		return result{}, nil, err
	}
	if info == nil {
		info = map[string]any{}
	}
	info["workload"] = name
	info["seed"] = cfg.seed
	info["trace"] = cfg.trace
	for k, v := range hostFacts() {
		info[k] = v
	}
	info["steal_ticks"] = stealTicks() - steal0
	info["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, info, nil
}

// runAll runs every workload for one seed, prints each one's metrics by
// name with its unit, and ends with one combined result line whose
// metric names are "<workload>/<metric>".
func runAll(cfg config) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range []string{"cold-rank", "append-rank", "serve-mix"} {
		res, info, err := runWorkload(name, workloads[name], cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printInfo(info)
		fmt.Printf("%s: attempted=%d failed=%d fail_ratio=%g\n", name, res.Attempted, res.Failed, info["fail_ratio"])
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
			all.Metrics[name+"/"+k] = m
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
	}
	printResult(all)
	return 0
}

func printInfo(info map[string]any) {
	b, err := json.Marshal(map[string]any{"info": info})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: info: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

func printResult(res result) {
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN; a metric that could not be computed is a
			// failed check, not a number.
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", k)
			res.Metrics[k] = metric{Value: 0, Unit: m.Unit}
			res.Correct = false
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// setupReps is the number of timed set-ups per run, each building the
// store afresh. Half run before the measured loop and half after it, so
// that their median spans the run rather than one moment of it: the
// host's slow phases last seconds.
const setupReps = 6

// timedSetups runs setup(r) for r in [from, to), each after settle, and
// returns the last store and the seconds of each set-up.
func timedSetups[T any](from, to int, setup func(rep int) (T, error)) (T, []float64, error) {
	var st T
	var secs []float64
	for r := from; r < to; r++ {
		var zero T
		st = zero
		settle()
		t0 := time.Now()
		var err error
		if st, err = setup(r); err != nil {
			return zero, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, secs, nil
}

// runUnits runs the schedule units u = 0, 1, 2, ... of a workload and
// stops after the first unit that ends at least seconds after the start
// with u+1 a multiple of every. With every set to the units of one pass
// over the workload's inputs, a run covers whole passes however fast the
// program is, so a speed change cannot change which inputs are measured.
// unit runs one unit and returns its measured seconds.
func runUnits(seconds float64, every int, unit func(u int) (float64, error)) ([]float64, error) {
	var secs []float64
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for u := 0; ; u++ {
		s, err := unit(u)
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
		if (u+1)%every == 0 && time.Now().After(end) {
			return secs, nil
		}
	}
}

// forEach runs fn(0), ..., fn(n-1) on one goroutine per CPU. The
// verification passes use it; they run outside the measured time.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// settle collects twice, outside the measured time: the first
// collection moves pooled scratch (sync.Pool) to the victim cache and the
// second drops it. A schedule unit that starts after settle starts from
// the same runtime state whatever ran before it: no garbage, and no
// scratch buffers pre-sized by earlier, larger drains.
func settle() {
	runtime.GC()
	runtime.GC()
}

// msSince is the elapsed time since t0 in milliseconds.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// joinErrs renders verification failures for stderr.
func joinErrs(errs []string, limit int) string {
	if len(errs) > limit {
		errs = append(errs[:limit:limit], fmt.Sprintf("... and %d more", len(errs)-limit))
	}
	return strings.Join(errs, "\n  ")
}
