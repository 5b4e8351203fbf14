package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/harness"
	"ilplimit/internal/journal"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// Config tunes the analysis service; the zero value of every field gets
// a production default from withDefaults.  The memory size and step
// limit are not among them: every job runs at harness.DefaultMemWords
// words and harness.DefaultStepLimit steps, as its key records.
type Config struct {
	// DataDir roots the durable state: the results journal and one
	// journal directory per suite job.  Empty disables durability (jobs
	// still run; nothing survives a restart).
	DataDir string
	// QueueDepth bounds the global admission queue (default 64); a job
	// arriving past it is shed with 429.
	QueueDepth int
	// TenantQueueDepth bounds one tenant's share of the queue (default
	// QueueDepth/4, min 1), shedding a flooding tenant early.
	TenantQueueDepth int
	// TenantQuota bounds one tenant's concurrently running jobs
	// (default 2).
	TenantQuota int
	// Workers sizes the execution pool (default GOMAXPROCS).
	Workers int
	// MaxBodyBytes bounds a request body (default 8 MiB → 413 beyond).
	MaxBodyBytes int64
	// DefaultTimeout is the per-job deadline when the request names none
	// (default 60s); MaxTimeout clamps requested deadlines (default 5m).
	DefaultTimeout, MaxTimeout time.Duration
	// MaxScale clamps suite job scale (default 8) — scale is a work
	// multiplier, and an unbounded one is a self-inflicted DoS.
	MaxScale int
	// CacheEntries bounds the completed-result LRU (default 256).
	CacheEntries int
	// Watchdog arms the replay ring stall watchdog per job (default 30s;
	// negative disables).
	Watchdog time.Duration
	// TraceStore, when non-empty, is a persistent annotated trace store
	// directory shared by all jobs: suite cells and source/assembly
	// submissions replay warm entries zero-copy instead of re-running
	// the VM.  Jobs carrying an uploaded trace never consult it.
	TraceStore string
	// Fault injects deterministic daemon-side faults (tests and the
	// soak's load shaping); nil in production.
	Fault *faultinject.ServerPlan
	// Metrics receives service telemetry (nil disables).
	Metrics *telemetry.Registry
	// GitSHA stamps durable journals for provenance.
	GitSHA string
}

// withDefaults fills unset fields with production defaults.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth / 4
	}
	if c.TenantQueueDepth < 1 {
		c.TenantQueueDepth = 1
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 8
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	switch {
	case c.Watchdog == 0:
		c.Watchdog = 30 * time.Second
	case c.Watchdog < 0:
		c.Watchdog = 0
	}
	return c
}

// job is one admitted unit of work flowing from the handler through the
// admission queue to a worker.
type job struct {
	key      string
	req      *Request
	benches  []bench.Benchmark
	tenant   string
	deadline time.Time
	flight   *flight
}

// Server is the analysis service engine.  New starts its worker pool;
// Handler serves its HTTP API; StartDrain/Drained implement graceful
// shutdown; Close stops everything.
type Server struct {
	cfg   Config
	adm   *admitter
	cache *resultCache
	met   *telemetry.Registry

	store   *journal.Store      // nil when durability is off
	results *journal.JobJournal // durable completed-result journal

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup

	draining atomic.Bool
	jobDurMS atomic.Int64 // EWMA of job service time, for Retry-After
}

// resultsMeta fingerprints the durable results journal.  Result
// identity lives in each record's content-hash key, so the fingerprint
// only pins the schema; a daemon restarted with different queue knobs
// must still replay its completed results.
func resultsMeta(gitSHA string) journal.Meta {
	return journal.Meta{
		SchemaVersion: journal.SchemaVersion,
		GitSHA:        gitSHA,
		MemWords:      keySchemaVersion, // key layout version rides the fingerprint
		Models:        []string{"by-key"},
		Benchmarks:    []string{"results"},
	}
}

// New builds the service and starts its worker pool.  With a DataDir it
// opens the durable store, replaying the completed results of previous
// runs (SIGKILL included) into the lookup path.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		adm:   newAdmitter(cfg.QueueDepth, cfg.TenantQueueDepth, cfg.TenantQuota),
		cache: newResultCache(cfg.CacheEntries),
		met:   cfg.Metrics,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.jobDurMS.Store(100)
	if cfg.DataDir != "" {
		store, err := journal.OpenStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		results, err := store.OpenJob("results", resultsMeta(cfg.GitSHA))
		if err != nil {
			return nil, err
		}
		s.store, s.results = store, results
		s.met.Counter("server.durable_recovered").Add(int64(results.Recovered()))
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs  — submit a job (JSON or multipart), wait for its result
//	GET  /healthz  — readiness, queue depth, drain state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// StartDrain stops admitting jobs; queued and running jobs finish.
// Submissions during the drain are shed with 429.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.adm.drain()
}

// Drained blocks until every queued and running job has finished, or
// ctx expires.
func (s *Server) Drained(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for !s.adm.idle() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %w", ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// Close stops the worker pool (canceling running jobs) and releases the
// durable store.  Use StartDrain + Drained first for a graceful stop.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.adm.close()
	s.baseCancel()
	s.workers.Wait()
	if s.results != nil {
		return s.results.Close()
	}
	return nil
}

// errorDoc is the JSON body of every non-2xx response.
type errorDoc struct {
	// Error is the human-readable failure.
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses, mirroring the Retry-After
	// header at millisecond resolution.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// responseDoc is the JSON body of a successful job submission.
type responseDoc struct {
	// Key is the job's content-addressed identity.
	Key string `json:"key"`
	// Cached marks a result served from the in-memory LRU.
	Cached bool `json:"cached,omitempty"`
	// Durable marks a result replayed from the on-disk results journal
	// of a previous daemon run.
	Durable bool `json:"durable,omitempty"`
	// Result is the canonical parallelism matrix (harness.JobResult).
	Result json.RawMessage `json:"result"`
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// shed writes a 429 with the Retry-After estimate.
func (s *Server) shed(w http.ResponseWriter, err error) {
	retry := s.retryAfter()
	w.Header().Set("Retry-After", strconv.FormatInt(int64(retry/time.Second), 10))
	s.met.Counter("server.shed").Inc()
	writeJSON(w, http.StatusTooManyRequests, errorDoc{
		Error:        err.Error(),
		RetryAfterMS: retry.Milliseconds(),
	})
}

// retryAfter estimates when a shed client should come back: the time
// for the current backlog to clear through the worker pool at the
// observed per-job service time, clamped to [1s, 30s].
func (s *Server) retryAfter() time.Duration {
	queued, running := s.adm.depths()
	per := time.Duration(s.jobDurMS.Load()) * time.Millisecond
	est := per * time.Duration(queued+running) / time.Duration(s.cfg.Workers)
	if est < time.Second {
		est = time.Second
	}
	if est > 30*time.Second {
		est = 30 * time.Second
	}
	return est
}

// observeJobDur folds one job's service time into the EWMA behind
// Retry-After (α = 1/4).
func (s *Server) observeJobDur(d time.Duration) {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	old := s.jobDurMS.Load()
	s.jobDurMS.Store(old + (ms-old)/4)
}

// tenantOf resolves a request's tenant: body field, X-Tenant header,
// then "anon"; sanitized so tenants cannot mint unbounded or hostile
// metric keys.
func tenantOf(req *Request, r *http.Request) string {
	t := req.Tenant
	if t == "" {
		t = r.Header.Get("X-Tenant")
	}
	if t == "" {
		return "anon"
	}
	if len(t) > 32 {
		t = t[:32]
	}
	var b strings.Builder
	for _, c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('.')
		}
	}
	return b.String()
}

// handleHealth reports readiness and load.  A draining server reports
// ready=false with 503 so load balancers stop routing to it, while the
// body still carries the live queue depths for operators.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorDoc{Error: "GET only"})
		return
	}
	queued, running := s.adm.depths()
	status := http.StatusOK
	draining := s.draining.Load()
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Ready      bool `json:"ready"`
		Draining   bool `json:"draining"`
		QueueDepth int  `json:"queue_depth"`
		Running    int  `json:"running"`
	}{Ready: !draining, Draining: draining, QueueDepth: queued, Running: running})
}

// handleJobs is the submission endpoint: decode, resolve, and either
// serve the result from cache/durable storage or admit the job and wait
// for a worker.  Error statuses are deliberate and narrow — 429 shed,
// 413 oversized, 400 undecodable, 422 well-formed but unanalyzable,
// 408 deadline — so a 5xx always means a server-side defect.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorDoc{Error: "POST only"})
		return
	}
	s.met.Counter("server.requests").Inc()

	// Shed before reading the body: a draining or saturated server must
	// not spend its remaining capacity buffering uploads it will refuse.
	if s.draining.Load() {
		s.shed(w, errDraining)
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.met.Counter("server.oversized").Inc()
			writeJSON(w, http.StatusRequestEntityTooLarge, errorDoc{
				Error: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit)})
			return
		}
		// The client went away or stalled past the read deadline
		// mid-upload; nothing useful to send.
		s.met.Counter("server.aborted_uploads").Inc()
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "unreadable body"})
		return
	}
	req, err := DecodeBody(r.Header.Get("Content-Type"), body)
	if err != nil {
		s.met.Counter("server.bad_requests").Inc()
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}

	// Resolve suite selections and clamp the work knobs before keying:
	// the key must identify the resolved job, not the alias spelling.
	var benches []bench.Benchmark
	var benchNames []string
	if req.Kind == "suite" {
		for _, name := range req.Benchmarks {
			b, err := bench.ByName(name)
			if err != nil {
				s.met.Counter("server.bad_requests").Inc()
				writeJSON(w, http.StatusUnprocessableEntity, errorDoc{Error: err.Error()})
				return
			}
			benches = append(benches, b)
			benchNames = append(benchNames, b.Name)
		}
		if req.Scale > s.cfg.MaxScale {
			s.met.Counter("server.bad_requests").Inc()
			writeJSON(w, http.StatusUnprocessableEntity, errorDoc{
				Error: fmt.Sprintf("scale %d exceeds server maximum %d", req.Scale, s.cfg.MaxScale)})
			return
		}
	}
	tenant := tenantOf(req, r)
	s.met.Counter("tenant." + tenant + ".requests").Inc()

	key := jobKey(req, benchNames, harness.DefaultMemWords, harness.DefaultStepLimit)

	// Durable results from previous runs (including SIGKILLed ones)
	// replay byte-identically without touching the analyzer.
	if s.results != nil {
		if raw, ok := s.results.Lookup(key); ok {
			s.met.Counter("server.durable_hits").Inc()
			writeJSON(w, http.StatusOK, responseDoc{Key: key, Durable: true, Result: raw})
			return
		}
	}

	fl, leader, cached, hit := s.cache.begin(key)
	if hit {
		s.met.Counter("cache.hits").Inc()
		writeJSON(w, http.StatusOK, responseDoc{Key: key, Cached: true, Result: cached})
		return
	}
	defer fl.dropWaiter()

	if leader {
		s.met.Counter("cache.misses").Inc()
		timeout := s.cfg.DefaultTimeout
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
			if timeout > s.cfg.MaxTimeout {
				timeout = s.cfg.MaxTimeout
			}
		}
		j := &job{
			key: key, req: req, benches: benches, tenant: tenant,
			deadline: time.Now().Add(timeout), flight: fl,
		}
		depth, err := s.adm.submit(tenant, j)
		if err != nil {
			// The flight dies with its admission: joiners that raced in
			// share the shed rather than re-queueing refused work.
			s.cache.complete(key, fl, nil, http.StatusTooManyRequests, err, false)
			s.met.Counter("tenant." + tenant + ".shed").Inc()
			s.shed(w, err)
			return
		}
		s.met.Counter("server.admitted").Inc()
		s.met.Gauge("server.queue_depth").Set(int64(depth))
	} else {
		s.met.Counter("cache.joined").Inc()
	}

	select {
	case <-fl.done:
	case <-r.Context().Done():
		// The client gave up; the flight keeps running for any other
		// waiter (and for the durable journal), but this response is
		// dead.  dropWaiter (deferred) lets the worker skip the job if
		// nobody else wants it either.
		s.met.Counter("server.client_gone").Inc()
		return
	}
	if fl.err != nil {
		if fl.status == http.StatusTooManyRequests {
			s.shed(w, fl.err)
			return
		}
		if fl.status >= 500 {
			s.met.Counter("server.internal_errors").Inc()
		}
		writeJSON(w, fl.status, errorDoc{Error: fl.err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, responseDoc{Key: key, Result: fl.result})
}

// worker pulls admitted jobs until the admitter closes.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		it, ok := s.adm.next()
		if !ok {
			return
		}
		s.runJob(it)
	}
}

// runJob executes one dispatched job and completes its flight.  It is
// the per-job isolation boundary: a panic below (injected or real) is
// converted to a 500 for this job's waiters and the worker survives.
func (s *Server) runJob(it *qitem) {
	defer s.adm.done(it.tenant)
	j := it.job
	q, r := s.adm.depths()
	s.met.Gauge("server.queue_depth").Set(int64(q))
	s.met.Gauge("server.running").Set(int64(r))
	s.met.Counter("tenant." + it.tenant + ".jobs").Inc()

	// A suite job is worth running even with nobody waiting — its
	// journal is durable progress a resubmission resumes.  Anything
	// else computes a result only a waiter could read.
	if j.flight.abandoned() && (j.req.Kind != "suite" || s.store == nil) {
		s.met.Counter("server.abandoned").Inc()
		s.cache.complete(j.key, j.flight, nil, http.StatusRequestTimeout,
			errors.New("server: job abandoned by all clients"), false)
		return
	}
	if !j.deadline.After(time.Now()) {
		s.met.Counter("server.deadline_exceeded").Inc()
		s.cache.complete(j.key, j.flight, nil, http.StatusRequestTimeout,
			errors.New("server: deadline expired in queue"), false)
		return
	}

	start := time.Now()
	ctx, cancel := context.WithDeadline(s.baseCtx, j.deadline)
	res, status, err := s.executeIsolated(ctx, j)
	cancel()
	s.observeJobDur(time.Since(start))
	s.met.Counter("server.jobs").Inc()
	s.met.Counter("server.job_ns").AddDuration(time.Since(start))

	if err != nil {
		s.met.Counter("server.jobs_failed").Inc()
		s.cache.complete(j.key, j.flight, nil, status, err, false)
		return
	}
	raw, merr := json.Marshal(res)
	if merr != nil {
		s.cache.complete(j.key, j.flight, nil, http.StatusInternalServerError,
			fmt.Errorf("server: encoding result: %w", merr), false)
		return
	}
	if s.results != nil {
		// Durability before visibility: once any client sees this
		// result, a restarted daemon must reproduce it byte for byte.
		if err := s.results.AppendBench(j.key, json.RawMessage(raw)); err != nil {
			s.cache.complete(j.key, j.flight, nil, http.StatusInternalServerError,
				fmt.Errorf("server: journaling result: %w", err), false)
			return
		}
	}
	s.cache.complete(j.key, j.flight, raw, http.StatusOK, nil, true)
}

// executeIsolated runs execute under a panic recover, so one poisoned
// job (injected panics included) cannot take down the worker pool.
func (s *Server) executeIsolated(ctx context.Context, j *job) (res *harness.JobResult, status int, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.met.Counter("server.panics").Inc()
			res, status = nil, http.StatusInternalServerError
			err = fmt.Errorf("server: job panic: %v\n%s", p, debug.Stack())
		}
	}()
	return s.execute(ctx, j)
}

// execute runs one job's analysis and maps its failure to an HTTP
// status: 422 for content the analyzer rejects, 408 for deadline
// overruns, 500 for genuine internals (panics, injected faults,
// journal failures).
func (s *Server) execute(ctx context.Context, j *job) (*harness.JobResult, int, error) {
	if err := s.cfg.Fault.BeforeExec(); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	var res *harness.JobResult
	var err error
	if j.req.Kind == "suite" {
		res, err = s.runSuiteJob(ctx, j)
	} else {
		res, err = harness.AnalyzeJob(ctx, harness.JobSpec{
			Source:           j.req.Program,
			Asm:              j.req.Asm,
			Trace:            j.req.Trace,
			Models:           j.req.parsedModels(),
			Optimize:         j.req.Optimize,
			DisableUnrolling: j.req.DisableUnrolling,
			Watchdog:         s.cfg.Watchdog,
			TraceStore:       s.cfg.TraceStore,
			Metrics:          s.met.WithPrefix("job."),
		})
	}
	if err != nil {
		return nil, statusFor(err), err
	}
	return res, http.StatusOK, nil
}

// runSuiteJob runs a suite selection, journaled per job key when the
// durable store is open so a SIGKILLed daemon resumes completed
// benchmarks instead of re-running them.
func (s *Server) runSuiteJob(ctx context.Context, j *job) (*harness.JobResult, error) {
	opt := harness.Options{
		Scale:        j.req.Scale,
		Models:       j.req.parsedModels(),
		Optimize:     j.req.Optimize,
		Context:      ctx,
		Metrics:      s.met.WithPrefix("job."),
		Benchmarks:   j.benches,
		Watchdog:     s.cfg.Watchdog,
		TraceStore:   s.cfg.TraceStore,
		Jobs:         1, // the service's parallelism is across jobs
		Retries:      1,
		RetryBackoff: 50 * time.Millisecond,
	}
	var jj *journal.JobJournal
	if s.store != nil {
		var err error
		jj, err = s.store.OpenJob("job-"+j.key, opt.JournalMeta(s.cfg.GitSHA))
		if err != nil {
			return nil, fmt.Errorf("server: job journal: %w", err)
		}
		defer jj.Close()
		opt.Journal = jj.Journal
		if n := jj.Recovered(); n > 0 {
			s.met.Counter("server.suite_resumed").Add(int64(n))
		}
	}
	suite, err := harness.RunSuite(opt)
	if err != nil {
		return nil, err
	}
	res := harness.SuiteMatrix(suite)
	if j.req.DisableUnrolling {
		// RunSuite computes both unroll configurations in one replay;
		// SuiteMatrix reports the unrolled numbers, so swap in the
		// plain ones the request asked for.
		for i := range suite.Benchmarks {
			par := make(map[string]float64, len(suite.Benchmarks[i].ParNoUnroll))
			for m, p := range suite.Benchmarks[i].ParNoUnroll {
				par[m.String()] = p
			}
			res.Rows[i].Par = par
		}
	}
	if jj != nil {
		// The final matrix is durable in the results journal; the
		// per-job scratch journal has served its purpose.
		jj.Close()
		if err := s.store.RemoveJob("job-" + j.key); err != nil {
			return nil, fmt.Errorf("server: removing job journal: %w", err)
		}
	}
	return res, nil
}

// statusFor maps an analysis failure to its response status.
func statusFor(err error) int {
	var suiteErr *harness.SuiteError
	switch {
	case errors.Is(err, harness.ErrBadJob), errors.Is(err, vm.ErrStepLimit),
		errors.As(err, &suiteErr):
		return http.StatusUnprocessableEntity
	case errors.Is(err, vm.ErrCanceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}
