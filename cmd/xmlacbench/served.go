package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// servedRate is serve-native's open-loop arrival rate (requests per
	// second), about a third of the closed-loop capacity of a 2-core host.
	servedRate = 300
	// Shares of each round of serve-native: closed loop, then open loop;
	// the writer takes the rest.
	closedShare = 0.3
	openShare   = 0.3
	// readyTimeout bounds one server set-up.
	readyTimeout = 60 * time.Second
)

// server is one running `xmlac -serve` process.
type server struct {
	cmd    *exec.Cmd
	url    string
	out    bytes.Buffer // stdout and stderr; read only after exit
	exited chan struct{}
	err    error
}

// live holds the running servers, so a fatal error or a signal can stop
// them before the benchmark exits.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

func startServer(bin string, args []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{url: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append(args, "-serve", addr)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.out, &s.out
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// ready polls /healthz until the document is loaded; the server listens
// only once annotation has finished.
func (s *server) ready(c *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("xmlac -serve exited during set-up (%v): %s", s.err, s.out.String())
		default:
		}
		if resp, err := c.Get(s.url + "/healthz"); err == nil {
			var h struct {
				Loaded bool `json:"loaded"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Loaded {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("xmlac -serve not ready after %v", readyTimeout)
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only when the process already exited
	<-s.exited
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

func stopAllServers() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// getRequest issues one /request and judges the decision it returns.
func getRequest(c *http.Client, target string, accept ...expect) (n int, failed, wrong bool) {
	resp, err := c.Get(target)
	if err != nil {
		return 0, true, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return len(body), true, false
	}
	var r struct {
		Outcome string `json:"outcome"`
		Checked int    `json:"checked"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return len(body), true, false
	}
	var got expect
	switch r.Outcome {
	case "grant":
		got = expect{granted: true, count: r.Checked}
	case "deny":
	default:
		return len(body), true, false
	}
	return len(body), false, !anyMatch(got, accept)
}

// heapMB reads the server's live heap after a forced collection from the
// runtime statistics the heap profile carries.
func (s *server) heapMB(c *http.Client) (float64, error) {
	resp, err := c.Get(s.url + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(v, 64)
			return n / 1e6, err
		}
	}
	return 0, fmt.Errorf("heap profile carries no HeapAlloc line (%v)", sc.Err())
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// runServed is serve-native: the served document, schema and policy are
// written to files, `xmlac -serve` is started and timed until /healthz
// reports the document loaded, and the reads go over HTTP. The server has
// no write route, so the writes and the layer replay run against an
// in-process system assembled the way the server assembles its own:
// serve-native's write_* and cycle_* metrics measure that in-process
// native store, not the served path.
func runServed(w workload, in *inputs, o options) (*report, error) {
	dir, err := os.MkdirTemp(o.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base, err := in.baseDocument(w.factor, o.seed)
	if err != nil {
		return nil, err
	}
	s0, s1, err := in.states(base)
	if err != nil {
		return nil, err
	}
	files := map[string]string{"doc.xml": base.String(), "xmark.dtd": in.schema.String(), "policy.txt": policyText}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			return nil, err
		}
	}
	args := []string{"-backend", "xquery",
		"-dtd", filepath.Join(dir, "xmark.dtd"),
		"-policy", filepath.Join(dir, "policy.txt"),
		"-doc", filepath.Join(dir, "doc.xml")}

	c := newClient()
	defer c.CloseIdleConnections()
	n := setups
	if o.trace {
		n = 1
	}
	var times []float64
	var srv *server
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		if srv, err = startServer(o.xmlacBin, args); err != nil {
			return nil, err
		}
		if err := srv.ready(c); err != nil {
			srv.stop()
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer srv.stop()
	targets := make([]string, len(in.texts))
	for i, t := range in.texts {
		targets[i] = srv.url + "/request?q=" + url.QueryEscape(t)
	}

	mirror, _, err := setUp(w, in, o.seed)
	if err != nil {
		return nil, err
	}
	b := newBench(w, in, mirror, o.seed, s0, s1)
	// The served document never changes, so its reads are judged against
	// the base state whatever the mirror's writes did.
	read := func(i int) (bool, bool) {
		qi := b.query(i)
		op := b.tr.newOp()
		root := b.tr.open(op, 0, "read")
		s := b.tr.open(op, root.id(), "http.request")
		_, failed, wrong := getRequest(c, targets[qi], s0[qi])
		b.tr.close(s)
		b.tr.close(root)
		return failed, wrong
	}
	// load is serve-native's load for d: round by round, a closed loop of
	// reads (the throughput), the open loop of reads (the latencies) and
	// the writer alone on the in-process system, closed loop.
	load := func(d time.Duration) (*loadResult, error) {
		l := &loadResult{warm: closedLoop(clients, warmup(d), &b.pos, read)}
		warm, err := b.warmWrites()
		if err != nil {
			return nil, err
		}
		l.warm = append(l.warm, warm...)
		n, round := rounds(d)
		cd, od := share(round, closedShare), share(round, openShare)
		for r := 0; r < n; r++ {
			l.reads = append(l.reads, closedLoop(clients, cd, &b.pos, read)...)
			l.dur += cd
			paced, lags := openLoop(clients, servedRate, od, &b.pos, read)
			l.paced = append(l.paced, paced...)
			l.lags = append(l.lags, lags...)
			if err := b.writeLoop(round-cd-od, 0, &l.wr); err != nil {
				return nil, err
			}
		}
		return l, nil
	}
	d := time.Duration(o.seconds * float64(time.Second))
	rep := &report{}
	if o.trace {
		httpGet := func(qi int) (int, bool, bool) { return getRequest(c, targets[qi], s0[qi]) }
		return b.traced(d, o, rep, load, httpGet)
	}

	rep.add("setup_s", median(times), "s")
	mem, err := srv.heapMB(c)
	if err != nil {
		return nil, err
	}
	rep.add("mem_mb", mem, "MB")
	l, err := load(d)
	if err != nil {
		return nil, err
	}
	rep.addLoad(l)
	return rep, nil
}
