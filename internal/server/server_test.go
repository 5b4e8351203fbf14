package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

// testProgram builds a tiny distinct mini-C program per seed, so tests
// can mint cache hits (same seed) and cache busts (fresh seed) at will.
func testProgram(seed int) string {
	return fmt.Sprintf(`
int main() {
	int i, s;
	s = %d;
	for (i = 0; i < 32; i++) {
		if (i - (i / 3) * 3 == 0) s += i;
		else s -= 1;
	}
	print(s);
	return 0;
}
`, seed)
}

// newTestServer starts a Server plus an httptest front end and tears
// both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits one JSON job and returns the response status and
// decoded body fields.
func postJob(t *testing.T, url string, body map[string]interface{}) (int, responseDoc, errorDoc, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ok responseDoc
	var bad errorDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ok); err != nil {
			t.Fatalf("status %d, undecodable body %q: %v", resp.StatusCode, data, err)
		}
	} else if err := json.Unmarshal(data, &bad); err != nil {
		t.Fatalf("status %d, undecodable body %q: %v", resp.StatusCode, data, err)
	}
	return resp.StatusCode, ok, bad, resp.Header
}

// parMatrix decodes a responseDoc's result into name → model → value.
func parMatrix(t *testing.T, doc responseDoc) map[string]map[string]float64 {
	t.Helper()
	var res struct {
		Rows []struct {
			Name string             `json:"name"`
			Par  map[string]float64 `json:"par"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(doc.Result, &res); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]float64)
	for _, r := range res.Rows {
		out[r.Name] = r.Par
	}
	return out
}

// TestServerProgramJob submits a program job end to end and checks the
// matrix shape, plus the 422 path for unanalyzable content.
func TestServerProgramJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Watchdog: -1})
	status, doc, _, _ := postJob(t, ts.URL, map[string]interface{}{"program": testProgram(1)})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	m := parMatrix(t, doc)
	if len(m["program"]) != 7 {
		t.Fatalf("program row has %d models: %v", len(m["program"]), m)
	}
	if m["program"]["ORACLE"] <= 1 {
		t.Errorf("ORACLE parallelism %v, want > 1", m["program"]["ORACLE"])
	}

	status, _, bad, _ := postJob(t, ts.URL, map[string]interface{}{"asm": "frobnicate r1"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad asm: status = %d (%v)", status, bad)
	}
}

// TestServerDecodeErrors covers the client-error statuses the decoder
// produces: 400 for undecodable bodies, 413 for oversized ones, 405
// for the wrong method.
func TestServerDecodeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024, Watchdog: -1})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status = %d", resp.StatusCode)
	}

	big := bytes.Repeat([]byte("x"), 4096)
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d", resp.StatusCode)
	}
}

// stackProgram recurses, so its trace carries stack addresses from the
// top of whatever memory recorded it.
const stackProgram = `
int fib(int n) {
	int a, b;
	if (n < 2) return n;
	a = fib(n - 1);
	b = fib(n - 2);
	return a + b;
}
int main() {
	print(fib(12));
	return 0;
}
`

// postTraceJob submits an asm + trace pair as multipart/form-data and
// returns the response status and body.
func postTraceJob(t *testing.T, url, asmText string, traceData []byte) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.WriteField("asm", asmText); err != nil {
		t.Fatal(err)
	}
	fw, err := mw.CreateFormFile("trace", "trace.ilpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(traceData); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(url+"/v1/jobs", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServerMultipartTraceJob submits a trace + asm pair as
// multipart/form-data and expects the same matrix as the source job.
// The traces are recorded on vm.New, as cmd/tracegen records them, so
// the recursive program's stack addresses lie far above the daemon's
// MemWords.
func TestServerMultipartTraceJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Watchdog: -1})
	for _, c := range []struct{ name, src string }{
		{"loop", testProgram(7)},
		{"stack", stackProgram},
	} {
		t.Run(c.name, func(t *testing.T) {
			status, fromSource, _, _ := postJob(t, ts.URL, map[string]interface{}{"program": c.src})
			if status != http.StatusOK {
				t.Fatalf("source job: status = %d", status)
			}
			asmText, traceData := compileAndTrace(t, c.src)
			status, data := postTraceJob(t, ts.URL, asmText, traceData)
			if status != http.StatusOK {
				t.Fatalf("trace job: status = %d, body %s", status, data)
			}
			var doc responseDoc
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			want := parMatrix(t, fromSource)["program"]
			got := parMatrix(t, doc)["program"]
			if len(got) != len(want) {
				t.Errorf("trace job has %d models, source job %d", len(got), len(want))
			}
			for model, w := range want {
				if got[model] != w {
					t.Errorf("trace job %s = %v, source job = %v", model, got[model], w)
				}
			}
		})
	}
}

// TestServerTraceJobOutOfRange uploads traces with one event mutated
// past what the analyzers can index — an instruction beyond the
// program, a store beyond the analyzed memory, an address on another
// instruction too wide for a chunk lane — and expects 422, not an
// analyzer panic's 500.
func TestServerTraceJobOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, Config{Watchdog: -1})
	asmText, traceData := compileAndTrace(t, stackProgram)
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	var events []vm.Event
	if _, err := trace.Visit(bytes.NewReader(traceData), func(ev vm.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	store := slices.IndexFunc(events, func(ev vm.Event) bool { return prog.Instrs[ev.Idx].Op.IsStore() })
	plain := slices.IndexFunc(events, func(ev vm.Event) bool { return ev.Addr == 0 })
	if store < 0 || plain < 0 {
		t.Fatal("trace lacks a store or an event without an address")
	}
	for _, c := range []struct {
		name string
		at   int
		set  func(*vm.Event)
	}{
		{"idx", store, func(ev *vm.Event) { ev.Idx = int32(len(prog.Instrs)) }},
		{"addr", store, func(ev *vm.Event) { ev.Addr = vm.DefaultMemWords }},
		{"wide", plain, func(ev *vm.Event) { ev.Addr = 1 << 40 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := trace.NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range events {
				if i == c.at {
					c.set(&ev)
				}
				if err := w.Write(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if status, data := postTraceJob(t, ts.URL, asmText, buf.Bytes()); status != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422; body %s", status, data)
			}
		})
	}
}

// TestServerCorruptTraceUpload flips one payload byte of a trace the
// daemon has already served and leaves the footer alone.  The footer is
// the job's content key, so the daemon must reject the upload as
// undecodable before keying it — with or without durable results —
// rather than answer with the intact trace's stored matrix.
func TestServerCorruptTraceUpload(t *testing.T) {
	asmText, traceData := compileAndTrace(t, testProgram(11))
	bad := bytes.Clone(traceData)
	bad[8] ^= 0x01 // inside the record payload
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"cache", Config{Watchdog: -1}},
		{"durable", Config{Watchdog: -1, DataDir: t.TempDir()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, c.cfg)
			if status, data := postTraceJob(t, ts.URL, asmText, traceData); status != http.StatusOK {
				t.Fatalf("intact trace: status = %d, body %s", status, data)
			}
			if status, data := postTraceJob(t, ts.URL, asmText, bad); status != http.StatusBadRequest {
				t.Fatalf("corrupted trace: status = %d, want 400; body %s", status, data)
			}
		})
	}
}

// TestServerLargeDataSegment submits a program whose globals outrun the
// daemon's MemWords, so the VM grows its image to fit the data segment;
// the analyzers must cover the same memory, and the matrix must equal a
// replay built from the limits package directly, sized as the VM sizes
// itself.
func TestServerLargeDataSegment(t *testing.T) {
	const src = `
int a[1100000];
int main() {
	int i, s;
	for (i = 1099900; i < 1100000; i++) a[i] = i;
	s = 0;
	for (i = 1099900; i < 1100000; i++) s += a[i];
	print(s);
	return 0;
}
`
	_, ts := newTestServer(t, Config{Watchdog: -1})
	status, doc, bad, _ := postJob(t, ts.URL, map[string]interface{}{"program": src})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, bad.Error)
	}

	asmText, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<20)
	defer machine.Release()
	if len(machine.Mem) <= 1<<20 {
		t.Fatalf("VM image of %d words did not grow past MemWords", len(machine.Mem))
	}
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	group := limits.NewGroup(st, len(machine.Mem), limits.AllModels(), true)
	if err := limits.SerialReplay(context.Background(), machine.RunContext, group.Analyzers...); err != nil {
		t.Fatal(err)
	}

	got := parMatrix(t, doc)["program"]
	if len(got) != len(group.Analyzers) {
		t.Errorf("job has %d models, reference %d", len(got), len(group.Analyzers))
	}
	for _, r := range group.Results() {
		if got[r.Model.String()] != r.Parallelism() {
			t.Errorf("job %s = %v, reference = %v", r.Model, got[r.Model.String()], r.Parallelism())
		}
	}
}

// TestServerSingleFlight races two identical submissions and expects
// exactly one analyzer execution; a third, later submission must be a
// cache hit with byte-identical result.
func TestServerSingleFlight(t *testing.T) {
	plan := &faultinject.ServerPlan{ExecDelay: 150 * time.Millisecond}
	met := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Fault: plan, Metrics: met, Watchdog: -1})

	body := map[string]interface{}{"program": testProgram(2)}
	var wg sync.WaitGroup
	results := make([]responseDoc, 2)
	statuses := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], results[i], _, _ = postJob(t, ts.URL, body)
		}(i)
		// Stagger slightly so the second request reliably joins the
		// first's flight instead of racing the begin call.
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, st)
		}
	}
	if jobs, _, _ := plan.FiredJobs(); jobs != 1 {
		t.Errorf("analyzer executed %d times for identical submissions, want 1", jobs)
	}
	if !bytes.Equal(results[0].Result, results[1].Result) {
		t.Errorf("concurrent submissions disagree:\n%s\n%s", results[0].Result, results[1].Result)
	}

	status, doc, _, _ := postJob(t, ts.URL, body)
	if status != http.StatusOK || !doc.Cached {
		t.Fatalf("third submission: status %d, cached %v", status, doc.Cached)
	}
	if !bytes.Equal(doc.Result, results[0].Result) {
		t.Errorf("cached result differs from computed one")
	}
	if hits := met.Snapshot().Counters["cache.hits"]; hits < 1 {
		t.Errorf("cache.hits = %d, want >= 1", hits)
	}
}

// TestServerShedding saturates a one-worker, depth-one server and
// expects explicit 429 shedding with a Retry-After header, with every
// admitted job still succeeding — and zero 5xx anywhere.
func TestServerShedding(t *testing.T) {
	plan := &faultinject.ServerPlan{ExecDelay: 200 * time.Millisecond}
	met := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, TenantQueueDepth: 1, TenantQuota: 1,
		Fault: plan, Metrics: met, Watchdog: -1,
	})

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	headers := make([]http.Header, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique programs defeat the cache, so every request needs a
			// queue slot.
			statuses[i], _, _, headers[i] = postJob(t, ts.URL,
				map[string]interface{}{"program": testProgram(100 + i)})
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, st := range statuses {
		switch {
		case st == http.StatusOK:
			ok++
		case st == http.StatusTooManyRequests:
			shed++
			if headers[i].Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After header")
			}
		case st >= 500:
			t.Errorf("request %d: server error %d", i, st)
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok = %d, shed = %d; want both > 0", ok, shed)
	}
	if n := met.Snapshot().Counters["server.shed"]; int(n) != shed {
		t.Errorf("server.shed = %d, responses say %d", n, shed)
	}
}

// TestServerTenantIsolation floods tenant A and expects tenant B's
// submission to still be admitted: A hits its queue share, B rides the
// remaining global capacity.
func TestServerTenantIsolation(t *testing.T) {
	plan := &faultinject.ServerPlan{ExecDelay: 150 * time.Millisecond}
	_, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 8, TenantQueueDepth: 2, TenantQuota: 1,
		Fault: plan, Metrics: telemetry.NewRegistry(), Watchdog: -1,
	})

	// Tenant A floods: more than its share, less than the global queue.
	var wg sync.WaitGroup
	aStatuses := make([]int, 6)
	for i := 0; i < len(aStatuses); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			aStatuses[i], _, _, _ = postJob(t, ts.URL, map[string]interface{}{
				"program": testProgram(200 + i), "tenant": "flood"})
		}(i)
	}
	// Give the flood a head start, then tenant B submits once.
	time.Sleep(50 * time.Millisecond)
	bStatus, _, _, _ := postJob(t, ts.URL, map[string]interface{}{
		"program": testProgram(300), "tenant": "light"})
	wg.Wait()

	if bStatus != http.StatusOK {
		t.Errorf("light tenant shed with status %d while global queue had room", bStatus)
	}
	var aShed int
	for _, st := range aStatuses {
		if st == http.StatusTooManyRequests {
			aShed++
		}
	}
	if aShed == 0 {
		t.Errorf("flooding tenant was never shed; statuses = %v", aStatuses)
	}
}

// TestServerDeadline gives a job a deadline shorter than its injected
// service time and expects 408, not a hung request or a 5xx.
func TestServerDeadline(t *testing.T) {
	plan := &faultinject.ServerPlan{ExecDelay: 300 * time.Millisecond}
	_, ts := newTestServer(t, Config{Fault: plan, Watchdog: -1})
	status, _, bad, _ := postJob(t, ts.URL, map[string]interface{}{
		"program": testProgram(3), "timeout_ms": 50})
	if status != http.StatusRequestTimeout {
		t.Fatalf("status = %d (%v), want 408", status, bad)
	}
}

// TestServerPanicIsolation makes every second job panic inside the
// worker and checks the panicking job gets a 500 while the pool
// survives to run the jobs around it.
func TestServerPanicIsolation(t *testing.T) {
	plan := &faultinject.ServerPlan{PanicEvery: 2}
	_, ts := newTestServer(t, Config{Workers: 1, Fault: plan, Watchdog: -1})

	st1, _, _, _ := postJob(t, ts.URL, map[string]interface{}{"program": testProgram(400)})
	st2, _, _, _ := postJob(t, ts.URL, map[string]interface{}{"program": testProgram(401)})
	st3, _, _, _ := postJob(t, ts.URL, map[string]interface{}{"program": testProgram(402)})
	if st1 != http.StatusOK || st3 != http.StatusOK {
		t.Errorf("jobs around the panic: %d, %d; want 200, 200", st1, st3)
	}
	if st2 != http.StatusInternalServerError {
		t.Errorf("panicked job: status = %d, want 500", st2)
	}
	if _, panicked, _ := plan.FiredJobs(); panicked != 1 {
		t.Errorf("panicked = %d, want 1", panicked)
	}
}

// TestServerDurableReplay runs a job, restarts the server on the same
// data dir, and expects the resubmission to replay the journaled result
// byte for byte without re-executing the analyzer.
func TestServerDurableReplay(t *testing.T) {
	dir := t.TempDir()
	plan := &faultinject.ServerPlan{}
	s, err := New(Config{DataDir: dir, Fault: plan, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	body := map[string]interface{}{"program": testProgram(5)}
	status, first, _, _ := postJob(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("first run: status = %d", status)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{DataDir: dir, Fault: plan, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	status, second, _, _ := postJob(t, ts2.URL, body)
	if status != http.StatusOK {
		t.Fatalf("replayed run: status = %d", status)
	}
	if !second.Durable {
		t.Errorf("restarted server did not mark the result durable")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("durable replay differs:\n%s\n%s", first.Result, second.Result)
	}
	if jobs, _, _ := plan.FiredJobs(); jobs != 1 {
		t.Errorf("analyzer executed %d times across the restart, want 1", jobs)
	}
}

// TestServerSuiteJob runs a one-benchmark suite job against a durable
// store and checks the row plus journal cleanup.
func TestServerSuiteJob(t *testing.T) {
	dir := t.TempDir()
	s, ts := func() (*Server, *httptest.Server) {
		s, err := New(Config{DataDir: dir, Watchdog: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts
	}()
	status, doc, bad, _ := postJob(t, ts.URL, map[string]interface{}{
		"benchmarks": []string{"irsim"}})
	if status != http.StatusOK {
		t.Fatalf("suite job: status = %d (%v)", status, bad)
	}
	m := parMatrix(t, doc)
	if len(m["irsim"]) != 7 {
		t.Fatalf("irsim row has %d models: %v", len(m["irsim"]), m)
	}
	// The per-job scratch journal is removed once the result is durable.
	jobs, err := s.store.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range jobs {
		if k != "results" {
			t.Errorf("leftover job journal %q", k)
		}
	}

	status, _, bad, _ = postJob(t, ts.URL, map[string]interface{}{
		"benchmarks": []string{"no-such-benchmark"}})
	if status != http.StatusUnprocessableEntity {
		t.Errorf("unknown benchmark: status = %d (%v)", status, bad)
	}
}

// TestServerDrain checks the graceful-shutdown sequence: drain flips
// healthz to not-ready, sheds new work with 429, finishes in-flight
// work, and Drained returns with the queues empty.
func TestServerDrain(t *testing.T) {
	plan := &faultinject.ServerPlan{ExecDelay: 150 * time.Millisecond}
	s, ts := newTestServer(t, Config{Fault: plan, Watchdog: -1})

	done := make(chan int, 1)
	go func() {
		st, _, _, _ := postJob(t, ts.URL, map[string]interface{}{"program": testProgram(6)})
		done <- st
	}()
	time.Sleep(50 * time.Millisecond) // in flight
	s.StartDrain()

	st, _, _, hdr := postJob(t, ts.URL, map[string]interface{}{"program": testProgram(7)})
	if st != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Errorf("submission during drain: status %d, Retry-After %q", st, hdr.Get("Retry-After"))
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Ready || !health.Draining {
		t.Errorf("draining healthz: status %d, body %+v", resp.StatusCode, health)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drained(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if st := <-done; st != http.StatusOK {
		t.Errorf("in-flight job during drain: status = %d", st)
	}
	if q, r := s.adm.depths(); q != 0 || r != 0 {
		t.Errorf("post-drain depths = %d queued, %d running", q, r)
	}
}

// TestAdmitterFairness drives the queue directly: with tenant A's
// backlog ahead of tenant B's single job and quota 1, dispatch must
// alternate to B before draining A's queue.
func TestAdmitterFairness(t *testing.T) {
	a := newAdmitter(16, 8, 1)
	mk := func(tenant string) *job { return &job{tenant: tenant} }
	for i := 0; i < 3; i++ {
		if _, err := a.submit("heavy", mk("heavy")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.submit("light", mk("light")); err != nil {
		t.Fatal(err)
	}

	first, ok := a.next()
	if !ok {
		t.Fatal("no work")
	}
	second, ok := a.next()
	if !ok {
		t.Fatal("no second job: quota should admit the other tenant")
	}
	got := []string{first.tenant, second.tenant}
	if !(got[0] == "heavy" && got[1] == "light") && !(got[0] == "light" && got[1] == "heavy") {
		t.Fatalf("first two dispatches = %v, want one per tenant", got)
	}
	// Both tenants at quota: nothing dispatchable until a done.
	if it := func() *qitem { a.mu.Lock(); defer a.mu.Unlock(); return a.pickLocked() }(); it != nil {
		t.Fatalf("dispatched %q past quota", it.tenant)
	}
	a.done("heavy")
	third, ok := a.next()
	if !ok || third.tenant != "heavy" {
		t.Fatalf("third dispatch = %+v, want heavy (only tenant with queue and quota)", third)
	}
}

// TestAdmitterBounds covers the shed reasons: global capacity, tenant
// share, and draining.
func TestAdmitterBounds(t *testing.T) {
	a := newAdmitter(2, 1, 1)
	if _, err := a.submit("a", &job{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.submit("a", &job{}); err != errTenantSaturated {
		t.Errorf("tenant overflow: err = %v", err)
	}
	if _, err := a.submit("b", &job{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.submit("c", &job{}); err != errQueueFull {
		t.Errorf("global overflow: err = %v", err)
	}
	a.drain()
	if _, err := a.submit("d", &job{}); err != errDraining {
		t.Errorf("draining: err = %v", err)
	}
}

// keyProgram is the fixed program TestServerJobKeysPinned keys.
const keyProgram = `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 16; i++) s += i * i;
	print(s);
	return 0;
}
`

// TestServerJobKeysPinned pins the content keys of three job forms to
// their exact hex.  A key is the name every cached and durable result
// is stored under, so a changed key orphans every result a -data
// directory holds: keys may change only on purpose, with a
// keySchemaVersion bump and an update here.
func TestServerJobKeysPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{Watchdog: -1})
	for _, c := range []struct {
		name string
		body map[string]interface{}
		key  string
	}{
		{"program", map[string]interface{}{"program": keyProgram}, "517adc99c50b1e6ac9773aa8a1205144"},
		{"program-subset", map[string]interface{}{"program": keyProgram,
			"models": []string{"SP", "ORACLE"}, "disable_unrolling": true}, "fd3630f66883d2ec02050fc46aa8ba4d"},
		{"suite", map[string]interface{}{"benchmarks": []string{"irsim", "eqntott"}, "scale": 2}, "11e891434e1787e13f7ee32905dcea61"},
	} {
		status, doc, bad, _ := postJob(t, ts.URL, c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d (%v)", c.name, status, bad)
		}
		if doc.Key != c.key {
			t.Errorf("%s: key = %s, want %s", c.name, doc.Key, c.key)
		}
	}
}
