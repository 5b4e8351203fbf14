package limits

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// replayFromEvents adapts a captured trace to the RunFunc the replays
// take; the producer ignores ctx.
func replayFromEvents(events []vm.Event) RunFunc {
	return func(ctx context.Context, visit func(vm.Event)) error {
		for _, ev := range events {
			visit(ev)
		}
		return nil
	}
}

// TestReplayObservedRingAccounting pins the ring metric catalogue to
// ground truth: every trace event is counted exactly once, the chunk
// count matches the ChunkEvents batching, the occupancy high-water mark
// stays within the ring, and the latency histogram saw (at most) every
// chunk.  Stall counters are scheduling-dependent, so only their
// presence is checked, not their values.
func TestReplayObservedRingAccounting(t *testing.T) {
	st, events, memWords := buildBenchTrace(t, "irsim")
	m := telemetry.NewRegistry()
	analyzers := trackedAnalyzers(st, memWords, false)
	if err := ReplayWith(context.Background(), ReplayOptions{Metrics: m}, replayFromEvents(events), analyzers...); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()

	if got, want := s.Counters["ring.events"], int64(len(events)); got != want {
		t.Errorf("ring.events = %d, want %d (trace length)", got, want)
	}
	wantChunks := int64((len(events) + ChunkEvents - 1) / ChunkEvents)
	if got := s.Counters["ring.chunks"]; got != wantChunks {
		t.Errorf("ring.chunks = %d, want %d", got, wantChunks)
	}
	if got := s.Counters["ring.detaches"]; got != 0 {
		t.Errorf("ring.detaches = %d, want 0 on a clean run", got)
	}
	hwm := s.Gauges["ring.occupancy_hwm"]
	if hwm < 1 || hwm > RingSlots {
		t.Errorf("ring.occupancy_hwm = %d, want within [1, %d]", hwm, RingSlots)
	}
	h, ok := s.Histograms["ring.chunk_latency_ns"]
	if !ok {
		t.Fatal("snapshot lacks ring.chunk_latency_ns histogram")
	}
	// advance() records latency only for chunks the slowest consumer has
	// freed; detach-free runs free every published chunk.
	if h.Count != wantChunks {
		t.Errorf("chunk latency observations = %d, want %d", h.Count, wantChunks)
	}
	for id := range analyzers {
		name := fmt.Sprintf("ring.consumer%02d.stalls", id)
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("snapshot lacks per-consumer stall counter %s", name)
		}
	}
}

// TestReplayObservedMatchesUnobserved proves instrumentation is pure
// observation: analyzer results are bit-identical with a live registry,
// with a nil registry, and to serial stepping.
func TestReplayObservedMatchesUnobserved(t *testing.T) {
	st, events, memWords := buildBenchTrace(t, "irsim")
	serial := trackedAnalyzers(st, memWords, true)
	for _, ev := range events {
		for _, a := range serial {
			a.Step(ev)
		}
	}
	observed := trackedAnalyzers(st, memWords, true)
	if err := ReplayWith(context.Background(), ReplayOptions{Metrics: telemetry.NewRegistry()}, replayFromEvents(events), observed...); err != nil {
		t.Fatal(err)
	}
	nilReg := trackedAnalyzers(st, memWords, true)
	if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), nilReg...); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		want := serial[i].Result()
		if got := observed[i].Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: observed replay diverged from serial", want.Model)
		}
		if got := nilReg[i].Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: nil-registry replay diverged from serial", want.Model)
		}
	}
}
