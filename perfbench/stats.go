package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// slope is the least-squares slope of log(y) against log(x): the growth
// exponent of y in x. Points with a non-positive coordinate are skipped.
func slope(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := range lx {
		mx += lx[i]
		my += ly[i]
	}
	mx /= float64(len(lx))
	my /= float64(len(ly))
	var sxy, sxx float64
	for i := range lx {
		sxy += (lx[i] - mx) * (ly[i] - my)
		sxx += (lx[i] - mx) * (lx[i] - mx)
	}
	return sxy / sxx
}

// classSlope fits the growth exponent over per-class medians: samples
// maps a size (stream length) to the latencies observed at that size.
func classSlope(samples map[int][]float64) float64 {
	var xs, ys []float64
	for n, v := range samples {
		xs = append(xs, float64(n))
		ys = append(ys, median(v))
	}
	return slope(xs, ys)
}

// unit is one whole unit of a run's schedule (a cold-rank round, an
// append-rank cycle, a serve-mix period): its measured seconds and the
// latencies of its ops, of its writes and of its TopK calls.
type unit struct {
	secs              float64
	all, writes, tops []float64
}

// unitMetrics sets ops_per_s, p50_ms, p90_ms and topk_p50_ms as medians
// across units of each unit's own figure, so a slow host phase that
// covers fewer than half of a run's units does not move them. It returns
// the same median of the units' median write, which the run reports as
// information only: writes are the shortest ops, and their timings
// follow the host too closely to be gated (see README.md).
func unitMetrics(us []unit, m map[string]metric) (writeP50 float64) {
	var rate, p50, p90, w50, t50 []float64
	for _, u := range us {
		rate = append(rate, float64(len(u.all))/u.secs)
		p50 = append(p50, median(u.all))
		p90 = append(p90, quantile(u.all, 0.9))
		w50 = append(w50, median(u.writes))
		t50 = append(t50, median(u.tops))
	}
	m["ops_per_s"] = metric{median(rate), "1/s"}
	m["p50_ms"] = metric{median(p50), "ms"}
	m["p90_ms"] = metric{median(p90), "ms"}
	m["topk_p50_ms"] = metric{median(t50), "ms"}
	return median(w50)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// gcStats is a runtime.MemStats delta over a measured loop.
type gcStats struct {
	allocBytes, mallocs, cycles uint64
	pause                       time.Duration
}

func readGC() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func gcDelta(a, b runtime.MemStats) gcStats {
	return gcStats{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		mallocs:    b.Mallocs - a.Mallocs,
		cycles:     uint64(b.NumGC - a.NumGC),
		pause:      time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// perOp adds the gc.* per-layer metrics for ops operations.
func (g gcStats) perOp(m layerMetrics, ops int) {
	n := float64(max(ops, 1))
	m.set("gc.alloc_mb_per_op", float64(g.allocBytes)/1e6/n)
	m.set("gc.mallocs_per_op", float64(g.mallocs)/n)
	m.set("gc.cycles_per_op", float64(g.cycles)/n)
	m.set("gc.pause_ms_per_op", float64(g.pause.Nanoseconds())/1e6/n)
}

// liveHeapMB is HeapAlloc after settle, in MB. The caller keeps the
// store referenced across the call.
func liveHeapMB() float64 {
	settle()
	ms := readGC()
	return float64(ms.HeapAlloc) / 1e6
}

// hostFacts are the informational host fields of the stability record.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks is the aggregate steal time from /proc/stat, in clock
// ticks; -1 when unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) > 8 && fs[0] == "cpu" {
			v, err := strconv.ParseInt(fs[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}
