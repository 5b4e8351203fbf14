// Command perfbench is the repository's end-to-end benchmark.  It runs
// one named workload for a fixed number of seconds, checks every output
// against a reference, and prints its metrics as one JSON object on the
// last line of standard output.  run.sh builds it (and the daemon) from
// the checkout and passes the arguments through:
//
//	bash perfbench/run.sh --workload suite-live --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 a separate, slower run times each layer's public calls
// from this package, reconciles their sum with the untraced CPU time,
// and writes the span file and layer table next to the build outputs.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // work directory inside the checkout
	daemon   string // ilplimitd binary (daemon-jobs)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(config) (*report, error)
}{
	"suite-live":  {runSuiteLive, traceSuiteLive},
	"suite-warm":  {runSuiteWarm, traceSuiteWarm},
	"daemon-jobs": {runDaemonJobs, traceDaemonJobs},
}

func main() {
	var cfg config
	var traceFlag int
	coldPass := flag.Bool("cold-pass", false, "run one suite pass in this fresh process and print its wall time (suite-live set-up)")
	writeGolden := flag.String("write-golden", "", "run the suite and write its digest and exact counters to this file")
	flag.StringVar(&cfg.workload, "workload", "", "workload: suite-live, suite-warm or daemon-jobs")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed (drives the daemon-jobs program generator)")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced layer ledger instead of the timed workload")
	flag.StringVar(&cfg.work, "work", "", "work directory for stores and trace artifacts")
	flag.StringVar(&cfg.daemon, "ilplimitd", "", "ilplimitd binary for daemon-jobs")
	flag.Parse()
	cfg.trace = traceFlag == 1

	switch {
	case *coldPass:
		if err := runColdPass(); err != nil {
			fatal(err)
		}
		return
	case *writeGolden != "":
		if err := writeGoldenFile(*writeGolden); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if cfg.work == "" {
		fatal(fmt.Errorf("need -work"))
	}
	if err := os.MkdirAll(cfg.work, 0o777); err != nil {
		fatal(err)
	}
	run := w.run
	if cfg.trace {
		run = w.traced
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.Correct = rep.Correct && rep.Failed == 0
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// fatal reports a run that could not produce a result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// printReport writes the metrics as a readable table, then the JSON
// result as the last line.
func printReport(r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// cpuNow returns this process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler reads a process's resident set every 10 ms until stopped.
// peak_rss_mb is the median over one-second slices of each slice's
// largest sample.  A single maximum (VmHWM) is not steady: it depends
// on when garbage collections meet the largest allocations, and on
// identical code it moved between runs by a quarter.
type rssSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // MiB
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := float64(os.Getpagesize()) / (1 << 20)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			b, err := os.ReadFile(path)
			if f := strings.Fields(string(b)); err == nil && len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					s.samples = append(s.samples, pages*page)
				}
			}
		}
	}()
	return s
}

// finish stops sampling and reports peak_rss_mb.
func (s *rssSampler) finish(r *report) {
	close(s.stop)
	s.done.Wait()
	const perSlice = 100 // samples per second
	var peaks []float64
	for i := 0; i < len(s.samples); i += perSlice {
		slice := s.samples[i:min(i+perSlice, len(s.samples))]
		peak := slice[0]
		for _, v := range slice {
			peak = max(peak, v)
		}
		peaks = append(peaks, peak)
	}
	r.set("peak_rss_mb", median(peaks), "MiB")
	fmt.Printf("peak_rss_mb is the median of %d one-second peaks of the resident set\n", len(peaks))
}

// setSetup reports setup_s, the median of a run's set-up times, and
// prints them all.
func setSetup(r *report, setups []float64) {
	r.set("setup_s", median(setups), "s")
	fmt.Fprintf(os.Stderr, "perfbench: set-up times (s): %.4g\n", setups)
}

// median returns the middle value (mean of the middle two); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tail returns the highest candidate percentile with at least ten
// samples beyond it, its value (nearest rank) and the percentile used.
// Below 100 samples no candidate qualifies and the median stands in, so
// the figure never rests on fewer than ten samples.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p/100) >= 10 {
			return s[int(math.Ceil(p/100*float64(len(s))))-1], p
		}
	}
	return median(s), 50
}

// runtimeSample is a reading of the Go runtime's allocation and GC
// CPU accounting, for the runtime.* per-layer metrics.
type runtimeSample struct {
	alloc          uint64
	gcCPU, totalCP float64
}

var runtimeKeys = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: runtimeKeys[0]}, {Name: runtimeKeys[1]}}
	metrics.Read(s)
	return runtimeSample{alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCP: s[1].Value.Float64()}
}
