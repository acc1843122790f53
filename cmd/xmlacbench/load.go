package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// clients bounds the load: every workload drives the system from this
	// one process with at most this many goroutines and connections (the
	// core count of the reference machine).
	clients = 2
	// roundLen is the length of one round of a workload's phases. A workload
	// with several phases runs each in turn, round after round, rather than
	// each once in one stretch, so every phase samples the whole run: the
	// reference host's speed drifts by a fifth over seconds, and a phase run
	// in one stretch measured that drift as much as the system.
	roundLen = 2 * time.Second
)

// rounds splits a run of length d into rounds of about roundLen.
func rounds(d time.Duration) (n int, round time.Duration) {
	n = max(1, int((d+roundLen/2)/roundLen))
	return n, d / time.Duration(n)
}

// share is the part of d a phase with the given share of a round takes.
func share(d time.Duration, s float64) time.Duration { return time.Duration(s * float64(d)) }

// sample is one timed operation. For paced (open-loop) operations start is
// the due time, so waiting behind a stall counts as latency.
type sample struct {
	start, end    time.Time
	failed, wrong bool
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// op is one load operation. i is its position in the run's sequence: the
// operation picks its input from a seeded cycle by it, so every input is
// used equally often and the order depends only on the seed. Positions
// come from a counter the run keeps, so each slice of load resumes the
// cycle where the last one left it.
type op func(i int) (failed, wrong bool)

// closedLoop runs fn back to back on n goroutines until d has elapsed: a
// slow system receives less load.
func closedLoop(n int, d time.Duration, next *atomic.Int64, fn op) []sample {
	deadline := time.Now().Add(d)
	out := make([][]sample, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				failed, wrong := fn(int(next.Add(1) - 1))
				out[g] = append(out[g], sample{start, time.Now(), failed, wrong})
			}
		}(g)
	}
	wg.Wait()
	return flatten(out)
}

// openLoop issues fn at a fixed rate for d, whatever the system's speed.
// Operation i runs on goroutine i mod n; its latency runs from its due
// time. lags holds how late an idle goroutine woke for a due time: the
// load generator's own error.
func openLoop(n int, rate float64, d time.Duration, next *atomic.Int64, fn op) (samples []sample, lags []float64) {
	t0 := time.Now()
	total := int(rate * d.Seconds())
	base := int(next.Add(int64(total))) - total
	out := make([][]sample, n)
	lag := make([][]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += n {
				due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					lag[g] = append(lag[g], float64(time.Since(due))/1e6)
				}
				failed, wrong := fn(base + i)
				out[g] = append(out[g], sample{due, time.Now(), failed, wrong})
			}
		}(g)
	}
	wg.Wait()
	for _, l := range lag {
		lags = append(lags, l...)
	}
	return flatten(out), lags
}

func flatten(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// latencies returns the samples' latencies in milliseconds, sorted.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	sort.Float64s(out)
	return out
}

// percentile interpolates the p-th percentile of sorted values (0 when
// there are none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := p / 100 * float64(len(sorted)-1)
	lo := int(r)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (r-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// throughput is completed operations per second of a phase of length d.
func throughput(ss []sample, d time.Duration) float64 {
	return float64(len(ss)) / d.Seconds()
}

// addLatency reports a batch's p50, p90 and p99 under prefix, with its
// sample count.
func (r *report) addLatency(prefix string, ss []sample) {
	lat := latencies(ss)
	r.add(prefix+"_p50_ms", percentile(lat, 50), "ms")
	r.add(prefix+"_p90_ms", percentile(lat, 90), "ms")
	r.add(prefix+"_p99_ms", percentile(lat, 99), "ms")
	r.add(prefix+"_samples", float64(len(lat)), "count")
}

// interval is a span of wall time during which a writer held the system.
type interval struct{ start, end time.Time }

// readWait attributes lock waits to reads from the writer's own
// timestamps: a read that starts while a write runs is blocked until that
// write ends (or the read does). It returns the mean wait per read in
// milliseconds and the share of blocked reads.
func readWait(reads []sample, writes []interval) (waitMS, blocked float64) {
	if len(reads) == 0 {
		return 0, 0
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].start.Before(writes[j].start) })
	total := 0.0
	n := 0
	for _, r := range reads {
		i := sort.Search(len(writes), func(i int) bool { return writes[i].start.After(r.start) }) - 1
		if i < 0 || !writes[i].end.After(r.start) {
			continue
		}
		end := writes[i].end
		if r.end.Before(end) {
			end = r.end
		}
		total += float64(end.Sub(r.start)) / 1e6
		n++
	}
	return total / float64(len(reads)), float64(n) / float64(len(reads))
}

// loadResult is one load phase's outcome.
type loadResult struct {
	reads []sample      // closed-loop reads, the throughput's basis
	dur   time.Duration // the closed-loop reading time, summed over the run's slices
	paced []sample      // open-loop reads
	lags  []float64     // open-loop timer lag
	wr    writeResult   // the write side
	warm  []sample      // untimed warm-up operations, still judged
}

func (l *loadResult) countInto(r *report) {
	r.count(l.warm)
	r.count(l.reads)
	r.count(l.paced)
	r.count(l.wr.writes)
	r.count(l.wr.cycles)
}
