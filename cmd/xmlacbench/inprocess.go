package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"xmlac"
)

const (
	// setups is how many fresh set-ups a run times; setup_s is their median.
	// A set-up of the rw-* documents takes a tenth of a second, and single
	// ones vary by half on the reference host.
	setups = 9
	// readShare is the share of each round of a read-only in-process
	// workload spent reading; its writer takes the rest.
	readShare = 0.5
	// writeRate paces the writer of the rw-* workloads (writes per second).
	writeRate = 8
	// passPairs is how many insert/delete pairs the untimed correctness
	// pass of the rw-* workloads checks.
	passPairs = 20
)

// bench is one assembled system under load, with the oracle's answers for
// the states the writes move it between.
type bench struct {
	w      workload
	in     *inputs
	sys    *xmlac.System
	seed   int64
	order  []int        // the seeded cycle the operations draw queries from
	pos    atomic.Int64 // the next load operation's position in that cycle
	s0, s1 []expect
	writes int     // writes applied so far; odd leaves the marked bidder in place
	tr     *tracer // nil outside the traced load and replay phases
}

func newBench(w workload, in *inputs, sys *xmlac.System, seed int64, s0, s1 []expect) *bench {
	order := rand.New(rand.NewSource(seed)).Perm(len(in.queries))
	return &bench{w: w, in: in, sys: sys, seed: seed, order: order, s0: s0, s1: s1}
}

// query is the query the operation at position i issues.
func (b *bench) query(i int) int { return b.order[i%len(b.order)] }

// setUp builds one fresh system the way a deployment does: generate the
// document, assemble the system, load, and annotate (rewriting
// enforcement reads the unannotated store and needs no annotation).
func setUp(w workload, in *inputs, seed int64) (*xmlac.System, time.Duration, error) {
	start := time.Now()
	doc, err := in.baseDocument(w.factor, seed)
	if err != nil {
		return nil, 0, err
	}
	pol, err := xmlac.ParsePolicy(policyText)
	if err != nil {
		return nil, 0, err
	}
	sys, err := xmlac.New(xmlac.Config{Schema: xmlac.XMarkSchema(), Policy: pol, Backend: w.backend, Optimize: true, Enforce: w.enforce})
	if err != nil {
		return nil, 0, err
	}
	if err := sys.Load(doc); err != nil {
		return nil, 0, err
	}
	if sys.ActiveMode() != xmlac.EnforceRewrite {
		if _, err := sys.Annotate(); err != nil {
			return nil, 0, err
		}
	}
	return sys, time.Since(start), nil
}

// warmup is the untimed load before a measured phase of length d, so caches
// fill and the CPUs reach speed before timing starts: a tenth of the phase,
// at most a second.
func warmup(d time.Duration) time.Duration { return min(d/10, time.Second) }

// heapMB is the live heap after a collection, in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// state is the oracle's answer set for the document as the writes left it.
func (b *bench) state() []expect {
	if b.writes%2 == 1 {
		return b.s1
	}
	return b.s0
}

// nextWrite prepares the next write of the sequence — insert a marked
// bidder under the lot, then delete it again — and returns the call that
// applies it. Markers come from the seed and the write's position.
func (b *bench) nextWrite() (func() (*xmlac.UpdateReport, error), error) {
	n := b.writes
	b.writes++
	marker := fmt.Sprintf("s%d-%d", b.seed, n/2)
	if n%2 == 1 {
		u := bidderPath(marker)
		return func() (*xmlac.UpdateReport, error) { return b.sys.DeleteAndReannotate(u) }, nil
	}
	tmpl, err := b.in.bidder(marker)
	if err != nil {
		return nil, err
	}
	return func() (*xmlac.UpdateReport, error) { return b.sys.InsertAndReannotate(lotPath, tmpl) }, nil
}

// read issues query qi as a span of operation op and judges the decision
// against the accepted answers.
func (b *bench) read(op, parent int64, qi int, accept ...expect) (failed, wrong bool) {
	s := b.tr.open(op, parent, "core.request")
	res, err := b.sys.Request(b.in.queries[qi])
	b.tr.close(s)
	return judge(res, err, accept...)
}

// reader is the closed-loop read operation. Beside a writer it accepts
// either state's answer, since a read may run on either side of a write;
// otherwise the document holds still while it reads.
func (b *bench) reader(beside bool) op {
	return func(i int) (bool, bool) {
		qi := b.query(i)
		op := b.tr.newOp()
		root := b.tr.open(op, 0, "read")
		accept := []expect{b.s0[qi], b.s1[qi]}
		if !beside {
			accept = []expect{b.state()[qi]}
		}
		failed, wrong := b.read(op, root.id(), qi, accept...)
		b.tr.close(root)
		return failed, wrong
	}
}

// writeResult is what the write side measured.
type writeResult struct {
	writes, cycles []sample // cycle = the write plus the writer's own next read
	held           []interval
	lags           []float64
}

// writeLoop runs the write side for d and adds what it measured to res.
// rate > 0 paces the writer as an open loop (latencies run from each
// write's due time); rate 0 runs it closed loop.
func (b *bench) writeLoop(d time.Duration, rate float64, res *writeResult) error {
	t0 := time.Now()
	end := t0.Add(d)
	for i := 0; ; i++ {
		var due time.Time
		if rate > 0 {
			due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if !due.Before(end) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				res.lags = append(res.lags, float64(time.Since(due))/1e6)
			}
		} else if !time.Now().Before(end) {
			break
		}
		apply, err := b.nextWrite()
		if err != nil {
			return err
		}
		op := b.tr.newOp()
		root := b.tr.open(op, 0, "write")
		s := b.tr.open(op, root.id(), "core.write")
		start := time.Now()
		_, err = apply()
		stop := time.Now()
		b.tr.close(s)
		if rate == 0 {
			due = start
		}
		res.held = append(res.held, interval{start, stop})
		res.writes = append(res.writes, sample{due, stop, err != nil, false})
		qi := b.query(b.writes)
		failed, wrong := b.read(op, root.id(), qi, b.state()[qi])
		b.tr.close(root)
		res.cycles = append(res.cycles, sample{due, time.Now(), failed, wrong})
	}
	return nil
}

// readAll issues every query once, judged exactly against the document's
// current state.
func (b *bench) readAll() []sample {
	out := make([]sample, len(b.in.queries))
	for qi := range b.in.queries {
		failed, wrong := b.read(b.tr.newOp(), 0, qi, b.state()[qi])
		out[qi] = sample{failed: failed, wrong: wrong}
	}
	return out
}

// warmWrites applies one untimed insert/delete pair.
func (b *bench) warmWrites() ([]sample, error) {
	var out []sample
	for i := 0; i < 2; i++ {
		apply, err := b.nextWrite()
		if err != nil {
			return nil, err
		}
		_, err = apply()
		out = append(out, sample{failed: err != nil})
	}
	return out, nil
}

// mixedLoad runs one closed-loop reader beside the paced writer for d,
// adding the writer's measurements to wr.
func (b *bench) mixedLoad(d time.Duration, wr *writeResult) ([]sample, error) {
	done := make(chan error, 1)
	go func() { done <- b.writeLoop(d, writeRate, wr) }()
	reads := closedLoop(1, d, &b.pos, b.reader(true))
	return reads, <-done
}

// inProcessLoad is the measured load of an in-process workload, after a
// warm-up of reads and one write pair. The rw-* workloads run the reader
// beside the paced writer for all of d. A read-only workload alternates,
// round by round, its readers with the writer alone (closed loop), and
// reads every query once, untimed, before each read slice: a write leaves
// the store's indexes to be rebuilt lazily, and the readers are to find
// them warm.
func (b *bench) inProcessLoad(d time.Duration) (*loadResult, error) {
	l := &loadResult{warm: closedLoop(clients, warmup(d), &b.pos, b.reader(false))}
	warm, err := b.warmWrites()
	if err != nil {
		return nil, err
	}
	l.warm = append(l.warm, warm...)
	if b.w.mixed {
		l.dur = d
		l.reads, err = b.mixedLoad(d, &l.wr)
		l.lags = l.wr.lags
		return l, err
	}
	n, round := rounds(d)
	rd := share(round, readShare)
	for r := 0; r < n; r++ {
		l.warm = append(l.warm, b.readAll()...)
		l.reads = append(l.reads, closedLoop(clients, rd, &b.pos, b.reader(false))...)
		l.dur += rd
		if err := b.writeLoop(round-rd, 0, &l.wr); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// pass is the rw-* workloads' untimed correctness check on a fresh system:
// seeded insert/delete pairs, each write followed by a DTD validation of
// the document and every query checked exactly against the oracle.
func (b *bench) pass(pairs int, rep *report) error {
	invalid := 0
	for i := 0; i < 2*pairs; i++ {
		apply, err := b.nextWrite()
		if err != nil {
			return err
		}
		_, err = apply()
		rep.count([]sample{{failed: err != nil}})
		if errs := b.in.schema.Validate(b.sys.Document()); len(errs) > 0 {
			invalid++
			rep.wrong++
		}
		rep.count(b.readAll())
	}
	rep.add("pass_writes", float64(2*pairs), "count")
	rep.add("pass_invalid_documents", float64(invalid), "count")
	return nil
}

// auctionPair inserts a whole marked open auction and deletes it again by
// its type — the write the rw-* workloads would use if it were safe —
// and counts the decisions that disagree with the oracle afterwards. The
// count is a diagnostic of a known re-annotation defect under signs and
// does not enter the run's totals.
func (b *bench) auctionPair() (int, error) {
	marker := fmt.Sprintf("Auction-s%d", b.seed)
	doc, err := xmlac.ParseXMLString(lotText)
	if err != nil {
		return 0, err
	}
	doc.ElementsByLabel("type")[0].Children()[0].Value = marker
	wrong := 0
	check := func() error {
		want, err := b.in.oracle(b.sys.Document())
		if err != nil {
			return err
		}
		for qi := range b.in.queries {
			if _, w := b.read(0, 0, qi, want[qi]); w {
				wrong++
			}
		}
		return nil
	}
	if _, err := b.sys.InsertAndReannotate(openAuctionsPath, doc.Root()); err != nil {
		return 0, err
	}
	if err := check(); err != nil {
		return 0, err
	}
	if _, err := b.sys.DeleteAndReannotate(xmlac.MustParseXPath(`//open_auction[type = "` + marker + `"]`)); err != nil {
		return 0, err
	}
	return wrong, check()
}

func runInProcess(w workload, in *inputs, o options) (*report, error) {
	base, err := in.baseDocument(w.factor, o.seed)
	if err != nil {
		return nil, err
	}
	s0, s1, err := in.states(base)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	n := setups
	if o.trace {
		n = 1 // the traced run reports no set-up time
	}
	var times []float64
	var sys *xmlac.System
	for i := 0; i < n; i++ {
		sys = nil
		runtime.GC() // every set-up starts from the same collected heap
		s, d, err := setUp(w, in, o.seed)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		if i == 0 && w.mixed && !o.trace {
			fresh := newBench(w, in, s, o.seed, s0, s1)
			if err := fresh.pass(passPairs, rep); err != nil {
				return nil, err
			}
			wrong, err := fresh.auctionPair()
			if err != nil {
				return nil, err
			}
			rep.add("auction_pair_wrong_decisions", float64(wrong), "count")
		}
		sys = s
	}
	b := newBench(w, in, sys, o.seed, s0, s1)
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return b.traced(d, o, rep, b.inProcessLoad, nil)
	}
	rep.add("setup_s", median(times), "s")
	rep.add("mem_mb", heapMB(), "MB")

	l, err := b.inProcessLoad(d)
	if err != nil {
		return nil, err
	}
	if w.mixed {
		waitMS, blocked := readWait(l.reads, l.wr.held)
		rep.add("read_wait_ms", waitMS, "ms")
		rep.add("reads_blocked_ratio", blocked, "ratio")
	}
	rep.addLoad(l)
	return rep, nil
}

// addLoad reports a load's end-to-end metrics and totals. Read latency
// comes from the open loop where there is one: the latency users meet at
// a fixed arrival rate.
func (r *report) addLoad(l *loadResult) {
	r.add("tput_ops_s", throughput(l.reads, l.dur), "1/s")
	lat := l.reads
	if l.paced != nil {
		lat = l.paced
	}
	r.addLatency("read", lat)
	r.addLatency("write", l.wr.writes)
	r.addLatency("cycle", l.wr.cycles)
	if l.lags != nil {
		r.add("timer_lag_p99_ms", percentile(sortedCopy(l.lags), 99), "ms")
	}
	l.countInto(r)
	r.addTotals()
}

// addTotals reports the failure ratio and the wrong-decision count.
func (r *report) addTotals() {
	r.add("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	r.add("wrong_decisions", float64(r.wrong), "count")
}
