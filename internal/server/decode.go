package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"mime"
	"mime/multipart"
	"strconv"
	"strings"

	"ilplimit/internal/limits"
	"ilplimit/internal/trace"
)

// Request is one decoded job submission.  Exactly one input form must
// be present: Program (mini-C source), Asm (textual assembly), either
// of those plus Trace (a recorded internal/trace file, which then
// supplies the dynamic events), or Benchmarks (a suite job over the
// built-in benchmarks).  The other fields tune the analysis and the
// submission's scheduling.
type Request struct {
	// Kind names the job form: "program", "asm", "trace", or "suite".
	// Empty is allowed and inferred from which inputs are set.
	Kind string `json:"kind,omitempty"`
	// Program is mini-C source text.
	Program string `json:"program,omitempty"`
	// Asm is textual assembly for the study ISA.
	Asm string `json:"asm,omitempty"`
	// TraceB64 carries a recorded trace file, base64-encoded, in JSON
	// bodies; multipart bodies send the raw bytes as a "trace" part.
	TraceB64 string `json:"trace_b64,omitempty"`
	// Trace is the decoded trace file (populated from TraceB64 or the
	// multipart part; never set directly in JSON).
	Trace []byte `json:"-"`
	// traceEvents and traceCRC identify Trace (trace.Identity), set by
	// validate.
	traceEvents uint64
	traceCRC    uint32
	// Benchmarks selects suite entries by name or unique prefix.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scale multiplies suite benchmark sizes (default 1).
	Scale int `json:"scale,omitempty"`
	// Models restricts the analysis to these model names (default all).
	Models []string `json:"models,omitempty"`
	// Optimize runs the post-codegen optimizer before analysis.
	Optimize bool `json:"optimize,omitempty"`
	// DisableUnrolling turns off perfect loop unrolling.
	DisableUnrolling bool `json:"disable_unrolling,omitempty"`
	// Tenant attributes the job for quotas and fairness; the X-Tenant
	// header is used when empty, and "anon" when both are absent.
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMS is the job deadline in milliseconds (0 = server
	// default; values above the server maximum are clamped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ErrBadRequest marks a body the decoder rejected; the daemon maps it
// to HTTP 400.
var ErrBadRequest = errors.New("server: bad request")

// multipart bodies larger than this per text field are rejected
// outright — text fields are names and flags, never payloads.
const maxFieldBytes = 1 << 20

// DecodeBody parses one request body into a Request.  JSON bodies
// (content type "application/json" or empty) and multipart/form-data
// bodies (fields named like the JSON keys, with the trace sent raw as a
// "trace" file part) are both accepted.  The caller bounds len(body);
// DecodeBody performs no I/O.  This is the daemon's untrusted-input
// frontier and the fuzz target FuzzDecodeBody.
func DecodeBody(contentType string, body []byte) (*Request, error) {
	mediaType := ""
	var params map[string]string
	if contentType != "" {
		var err error
		mediaType, params, err = mime.ParseMediaType(contentType)
		if err != nil {
			return nil, fmt.Errorf("%w: content type: %v", ErrBadRequest, err)
		}
	}
	var req *Request
	var err error
	switch {
	case mediaType == "" || mediaType == "application/json":
		req, err = decodeJSON(body)
	case mediaType == "multipart/form-data":
		req, err = decodeMultipart(body, params["boundary"])
	default:
		return nil, fmt.Errorf("%w: unsupported content type %q", ErrBadRequest, mediaType)
	}
	if err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeJSON parses a JSON body, decoding the base64 trace if present.
func decodeJSON(body []byte) (*Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest)
	}
	if req.TraceB64 != "" {
		data, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err != nil {
			return nil, fmt.Errorf("%w: trace_b64: %v", ErrBadRequest, err)
		}
		req.Trace = data
		req.TraceB64 = ""
	}
	return &req, nil
}

// decodeMultipart parses a multipart/form-data body.  The "trace" part
// carries raw trace bytes; every other part is a text field mirroring
// the JSON keys.
func decodeMultipart(body []byte, boundary string) (*Request, error) {
	if boundary == "" {
		return nil, fmt.Errorf("%w: multipart body without boundary", ErrBadRequest)
	}
	mr := multipart.NewReader(bytes.NewReader(body), boundary)
	req := &Request{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: multipart: %v", ErrBadRequest, err)
		}
		name := part.FormName()
		if name == "trace" {
			data, err := io.ReadAll(part)
			if err != nil {
				return nil, fmt.Errorf("%w: multipart trace: %v", ErrBadRequest, err)
			}
			req.Trace = data
			continue
		}
		data, err := io.ReadAll(io.LimitReader(part, maxFieldBytes+1))
		if err != nil {
			return nil, fmt.Errorf("%w: multipart field %q: %v", ErrBadRequest, name, err)
		}
		if len(data) > maxFieldBytes {
			return nil, fmt.Errorf("%w: multipart field %q exceeds %d bytes", ErrBadRequest, name, maxFieldBytes)
		}
		val := string(data)
		switch name {
		case "kind":
			req.Kind = val
		case "program":
			req.Program = val
		case "asm":
			req.Asm = val
		case "benchmarks":
			for _, b := range strings.Split(val, ",") {
				if b = strings.TrimSpace(b); b != "" {
					req.Benchmarks = append(req.Benchmarks, b)
				}
			}
		case "models":
			for _, m := range strings.Split(val, ",") {
				if m = strings.TrimSpace(m); m != "" {
					req.Models = append(req.Models, m)
				}
			}
		case "scale":
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("%w: scale: %v", ErrBadRequest, err)
			}
			req.Scale = n
		case "timeout_ms":
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: timeout_ms: %v", ErrBadRequest, err)
			}
			req.TimeoutMS = n
		case "optimize":
			req.Optimize = parseBool(val)
		case "disable_unrolling":
			req.DisableUnrolling = parseBool(val)
		case "tenant":
			req.Tenant = val
		default:
			return nil, fmt.Errorf("%w: unknown multipart field %q", ErrBadRequest, name)
		}
	}
	return req, nil
}

// parseBool reads form-ish booleans: "1", "true", "on", "yes".
func parseBool(s string) bool {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "true", "on", "yes":
		return true
	}
	return false
}

// validate checks structural consistency: exactly one job form, a kind
// (explicit or inferred) matching the inputs, sane numeric ranges, and
// well-formed model names.  Benchmark names resolve later against the
// suite registry; model names are checked here because the set is
// closed.
func (r *Request) validate() error {
	inferred := ""
	switch {
	case r.Trace != nil:
		inferred = "trace"
	case len(r.Benchmarks) > 0:
		inferred = "suite"
	case r.Program != "":
		inferred = "program"
	case r.Asm != "":
		inferred = "asm"
	default:
		return fmt.Errorf("%w: no program, asm, trace, or benchmarks supplied", ErrBadRequest)
	}
	if r.Kind == "" {
		r.Kind = inferred
	}
	switch r.Kind {
	case "program":
		if r.Program == "" || r.Asm != "" || r.Trace != nil || len(r.Benchmarks) > 0 {
			return fmt.Errorf("%w: kind %q wants exactly a program", ErrBadRequest, r.Kind)
		}
	case "asm":
		if r.Asm == "" || r.Program != "" || r.Trace != nil || len(r.Benchmarks) > 0 {
			return fmt.Errorf("%w: kind %q wants exactly an asm text", ErrBadRequest, r.Kind)
		}
	case "trace":
		if r.Trace == nil || len(r.Benchmarks) > 0 {
			return fmt.Errorf("%w: kind %q wants a trace part", ErrBadRequest, r.Kind)
		}
		if (r.Program == "") == (r.Asm == "") {
			return fmt.Errorf("%w: a trace job wants its program in exactly one of program/asm", ErrBadRequest)
		}
		// A trace is keyed by its footer, so the footer must vouch for
		// the payload before the job is admitted.
		var err error
		if r.traceEvents, r.traceCRC, err = trace.Identity(r.Trace); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	case "suite":
		if len(r.Benchmarks) == 0 || r.Program != "" || r.Asm != "" || r.Trace != nil {
			return fmt.Errorf("%w: kind %q wants a benchmarks list", ErrBadRequest, r.Kind)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind)
	}
	if r.Scale < 0 || r.Scale > 1<<10 {
		return fmt.Errorf("%w: scale %d out of range", ErrBadRequest, r.Scale)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative timeout_ms", ErrBadRequest)
	}
	if len(r.Models) > 0 {
		for _, name := range r.Models {
			var m limits.Model
			if err := m.UnmarshalText([]byte(name)); err != nil {
				return fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
		}
	}
	return nil
}

// parsedModels returns the request's model subset canonicalized to the
// paper's order with duplicates removed, or all models when the
// request named none.  validate has already vetted the names.
func (r *Request) parsedModels() []limits.Model {
	if len(r.Models) == 0 {
		return limits.AllModels()
	}
	want := make(map[limits.Model]bool, len(r.Models))
	for _, name := range r.Models {
		var m limits.Model
		if m.UnmarshalText([]byte(name)) == nil {
			want[m] = true
		}
	}
	var out []limits.Model
	for _, m := range limits.AllModels() {
		if want[m] {
			out = append(out, m)
		}
	}
	return out
}

// keyDoc is the canonical identity of a job: every result-affecting
// configuration field (mirroring journal.Meta's fingerprint discipline)
// plus content digests of the inputs — for traces, the CRC32 footer the
// v2 format already carries.  Its JSON marshals deterministically, and
// the cache key is a truncated SHA-256 of that encoding.
type keyDoc struct {
	// SchemaVersion versions the key layout itself.
	SchemaVersion int `json:"schema_version"`
	// Kind is the job form.
	Kind string `json:"kind"`
	// Models is the canonicalized model subset, in the paper's order.
	Models []string `json:"models"`
	// Scale, MemWords, StepLimit, Optimize and NoUnroll are the
	// result-affecting analysis knobs.
	Scale     int   `json:"scale,omitempty"`
	MemWords  int   `json:"mem_words"`
	StepLimit int64 `json:"step_limit"`
	Optimize  bool  `json:"optimize,omitempty"`
	NoUnroll  bool  `json:"no_unroll,omitempty"`
	// Benchmarks pins a suite job's resolved entries, in order.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// ProgramCRC / AsmCRC digest the submitted text inputs.
	ProgramCRC uint32 `json:"program_crc,omitempty"`
	AsmCRC     uint32 `json:"asm_crc,omitempty"`
	// TraceEvents and TraceCRC are the v2 trace footer.
	TraceEvents uint64 `json:"trace_events,omitempty"`
	TraceCRC    uint32 `json:"trace_crc,omitempty"`
}

// keySchemaVersion bumps every cached and durable result when the key
// layout or the meaning of any digested field changes.
const keySchemaVersion = 1

// jobKey derives the content-addressed cache key for a request run at
// memWords words and stepLimit steps.  benchmarks must already be
// resolved to full suite names.
func jobKey(r *Request, benchmarks []string, memWords int, stepLimit int64) string {
	doc := keyDoc{
		SchemaVersion: keySchemaVersion,
		Kind:          r.Kind,
		Scale:         r.Scale,
		MemWords:      memWords,
		StepLimit:     stepLimit,
		Optimize:      r.Optimize,
		NoUnroll:      r.DisableUnrolling,
		Benchmarks:    benchmarks,
	}
	for _, m := range r.parsedModels() {
		doc.Models = append(doc.Models, m.String())
	}
	if r.Program != "" {
		doc.ProgramCRC = crc32.ChecksumIEEE([]byte(r.Program))
	}
	if r.Asm != "" {
		doc.AsmCRC = crc32.ChecksumIEEE([]byte(r.Asm))
	}
	if r.Trace != nil {
		// validate checked the footer against the payload; the footer is
		// the trace's content address.
		doc.TraceEvents, doc.TraceCRC = r.traceEvents, r.traceCRC
	}
	b, _ := json.Marshal(doc)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
