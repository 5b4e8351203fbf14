package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ilplimit/internal/harness"
	"ilplimit/internal/telemetry"
)

// daemon is one running ilplimitd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr sync.WaitGroup // the stderr drain goroutine
}

// startDaemon launches ilplimitd on a loopback port with in-memory
// state and default admission settings, and returns once /healthz
// answers 200, together with the time that took.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ilplimitd: %w", err)
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	d.stderr.Add(1)
	go func() {
		defer d.stderr.Done()
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !strings.Contains(line, "debug") {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("ilplimitd did not announce its address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("ilplimitd never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

// stop sends SIGTERM (the daemon drains) and waits for the process and
// its stderr drain to end.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	d.stderr.Wait()
	return d.cmd.Wait()
}

// procCPU reads a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// jobOutcome is one round trip as the client saw it.
type jobOutcome struct {
	index   int64
	status  int
	latency time.Duration
	result  json.RawMessage
	cached  bool
	err     error
}

// client is one keep-alive connection to the daemon.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// submit posts job i and waits for its result.  The latency runs from
// the request write to the last byte of the response body.
func (c *client) submit(seed, i int64, tenant string) jobOutcome {
	body, err := json.Marshal(map[string]string{"program": jobSource(seed, i), "tenant": tenant})
	if err != nil {
		return jobOutcome{index: i, err: err}
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobOutcome{index: i, err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := jobOutcome{index: i, status: resp.StatusCode, latency: time.Since(t0), err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		var doc struct {
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			out.err = err
		}
		out.result, out.cached = doc.Result, doc.Cached
	} else if err == nil {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return out
}

func (c *client) close() { c.http.CloseIdleConnections() }

// daemonSpec is the JobSpec ilplimitd builds for a program job under
// its default configuration, telemetry included.
func daemonSpec(src string, met *telemetry.Registry) harness.JobSpec {
	return harness.JobSpec{Source: src, MemWords: memWords, StepLimit: 1 << 32,
		Watchdog: 30 * time.Second, Metrics: met.WithPrefix("job.")}
}

// verified is the in-process reference for one job.
type verified struct {
	instrs int64
	wall   time.Duration
	err    error
}

// verifyJob runs harness.AnalyzeJob in this process on the job's source,
// compares its matrix with the daemon's, byte for byte, and counts the
// job's traced instructions.
func verifyJob(seed int64, o jobOutcome, met *telemetry.Registry) verified {
	src := jobSource(seed, o.index)
	t0 := time.Now()
	res, err := harness.AnalyzeJob(context.Background(), daemonSpec(src, met))
	v := verified{wall: time.Since(t0), err: err}
	if err != nil {
		return v
	}
	want, err := json.Marshal(res)
	if err != nil {
		v.err = err
		return v
	}
	var got bytes.Buffer
	if err := json.Compact(&got, o.result); err != nil || !bytes.Equal(got.Bytes(), want) {
		v.err = fmt.Errorf("job %d: daemon matrix %s, in-process %s", o.index, o.result, want)
		return v
	}
	b, err := build(input{source: func() string { return src }}, func(_ string, f func()) { f() })
	if err == nil {
		err = b.countInstrs()
	}
	if err != nil {
		v.err = err
		return v
	}
	v.instrs = b.instrs
	return v
}

func jobsKey(seed int64) string { return fmt.Sprintf("daemon-jobs/seed=%d", seed) }

// jobDigest is the SHA-256 of the matrices of jobs 0..tracedJobs-1 in
// index order, each as compact JSON on a line of its own.
func jobDigest(outs []jobOutcome) (string, error) {
	lines := make([][]byte, tracedJobs)
	for _, o := range outs {
		if o.index < tracedJobs && o.err == nil {
			var b bytes.Buffer
			if err := json.Compact(&b, o.result); err != nil {
				return "", err
			}
			lines[o.index] = b.Bytes()
		}
	}
	h := sha256.New()
	for i, l := range lines {
		if l == nil {
			return "", fmt.Errorf("job %d has no result", i)
		}
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkJobDigest compares the matrices of jobs 0..tracedJobs-1 with the
// seed's digest in golden.json, when it has one.  The comparison is one
// operation, failed on a mismatch.
func checkJobDigest(r *report, seed int64, outs []jobOutcome) {
	want, ok := golden.JobDigests[jobsKey(seed)]
	if !ok {
		return
	}
	r.Attempted++
	got, err := jobDigest(outs)
	if err == nil && got != want {
		err = fmt.Errorf("matrices of jobs 0-%d digest to %s, golden.json has %s", tracedJobs-1, got, want)
	}
	if err != nil {
		r.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: job digest:", err)
	}
}

// minJobs extends the daemon-jobs window until this many jobs have
// finished, so the latency tail is always p99 with at least ten samples
// beyond it; a slow host would otherwise drop it to p90.
const minJobs = 1000

// daemonStarts is how many times daemon-jobs starts ilplimitd in
// set-up; setup_s is the median.  A start takes milliseconds, so the
// median of many is cheap, and a single one swings with scheduling.
const daemonStarts = 41

// runDaemonJobs measures a real ilplimitd under nproc closed-loop
// clients, each with one keep-alive connection, submitting unique
// generated programs.
func runDaemonJobs(cfg config) (*report, error) {
	r := &report{Correct: true}
	var setups []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("ilplimitd exit: %w", err)
			}
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(cfg.daemon); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	setSetup(r, setups)

	nclients := runtime.NumCPU()
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		d.stop()
		return nil, err
	}
	rss := sampleRSS(pid)
	var next, done atomic.Int64
	outcomes := make([][]jobOutcome, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(d.url)
			defer cl.close()
			tenant := fmt.Sprintf("bench-%d", c)
			for time.Now().Before(deadline) || done.Load() < minJobs {
				outcomes[c] = append(outcomes[c], cl.submit(cfg.seed, next.Add(1)-1, tenant))
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	cpu1, cerr := procCPU(pid)
	rss.finish(r)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("ilplimitd exit: %w", err)
	}
	if cerr != nil {
		return nil, cerr
	}

	// Outside the window: every successful job's matrix must equal
	// harness.AnalyzeJob run here on the same source.
	var all []jobOutcome
	for _, oc := range outcomes {
		all = append(all, oc...)
	}
	refs := make([]verified, len(all))
	parallel(len(all), nclients, func(i int) {
		if all[i].err == nil {
			refs[i] = verifyJob(cfg.seed, all[i], telemetry.NewRegistry())
		}
	})
	checkJobDigest(r, cfg.seed, all)
	var lat []float64
	var instrs int64
	for i, o := range all {
		r.Attempted++
		err := o.err
		if err == nil {
			err = refs[i].err
		}
		if err == nil && o.cached {
			err = fmt.Errorf("job %d answered from the result cache", o.index)
		}
		if err != nil {
			r.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
			continue
		}
		lat = append(lat, float64(o.latency.Nanoseconds())/1e6)
		instrs += refs[i].instrs
	}
	if instrs == 0 {
		return nil, errors.New("no job succeeded")
	}
	r.set("ns_per_instr", float64(window.Nanoseconds())/float64(instrs), "ns")
	r.set("cpu_ns_per_instr", float64((cpu1-cpu0).Nanoseconds())/float64(instrs), "ns")
	r.set("latency_ms.p50", median(lat), "ms")
	fmt.Printf("jobs %d ok of %d in %.2fs from %d clients; %d traced instructions\n",
		len(lat), len(all), window.Seconds(), nclients, instrs)
	// The tail is printed, not reported as a gated metric: on a shared
	// host its run-to-run spread exceeds any usable bound (README.md).
	tv, tp := tail(lat)
	fmt.Printf("latency_ms.tail %.4g ms (p%g of %d jobs; not gated)\n", tv, tp, len(lat))
	return r, nil
}

// parallel runs f(0..n-1) on workers goroutines and waits for them.
func parallel(n, workers int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
