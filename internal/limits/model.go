package limits

import "fmt"

// Model selects one of the paper's abstract machines.
type Model int

const (
	// Base uses none of the three techniques: every instruction waits for
	// the immediately preceding conditional branch, and branches execute
	// sequentially.
	Base Model = iota
	// CD adds perfect control dependence analysis: an instruction waits
	// only for its immediate control-dependence branch.  Branches still
	// execute in their original sequential order, one per cycle.
	CD
	// CDMF adds multiple flows of control to CD: the branch-ordering
	// constraint disappears.  This is the limit for machines without
	// speculative execution (e.g. dataflow machines).
	CDMF
	// SP speculates along the predicted path: an instruction waits only
	// for the most recent mispredicted branch.  Mispredicted branches
	// execute sequentially.
	SP
	// SPCD combines speculation with control dependence: an instruction
	// waits for the nearest mispredicted branch among its control
	// dependence ancestors.  Mispredicted branches execute sequentially.
	SPCD
	// SPCDMF further follows multiple flows of control: mispredicted
	// branches may resolve in parallel.
	SPCDMF
	// Oracle has perfect branch prediction: only data dependences remain.
	Oracle

	NumModels int = iota
)

var modelNames = [NumModels]string{"BASE", "CD", "CD-MF", "SP", "SP-CD", "SP-CD-MF", "ORACLE"}

// String returns the paper's name for the model.
func (m Model) String() string {
	if m >= 0 && int(m) < NumModels {
		return modelNames[m]
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// MarshalText renders the model name, so JSON maps keyed by Model use
// "BASE", "SP-CD-MF", … rather than integers.
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a paper model name.
func (m *Model) UnmarshalText(b []byte) error {
	for i, n := range modelNames {
		if n == string(b) {
			*m = Model(i)
			return nil
		}
	}
	return fmt.Errorf("limits: unknown model %q", b)
}

// AllModels lists the seven machines in the paper's order.
func AllModels() []Model {
	return []Model{Base, CD, CDMF, SP, SPCD, SPCDMF, Oracle}
}

// usesCD reports whether the model constrains instructions by their
// control dependence (and therefore needs the dynamic CD machinery).
func (m Model) usesCD() bool { return m == CD || m == CDMF || m == SPCD || m == SPCDMF }

// usesSpec reports whether the model speculates with branch prediction.
func (m Model) usesSpec() bool { return m == SP || m == SPCD || m == SPCDMF }

// SegAgg aggregates the code segments delimited by consecutive
// mispredicted branches that share one misprediction distance
// (paper Figures 6 and 7).
type SegAgg struct {
	// Count is the number of segments of this distance.
	Count int64
	// Cycles is the summed parallel execution time of those segments.
	Cycles int64
}

// Result reports one analysis.
type Result struct {
	Model Model
	// Unrolled records whether the perfect-unrolling filter was applied.
	Unrolled bool
	// Instructions is the number of scheduled (non-removed) instructions:
	// the sequential execution time.
	Instructions int64
	// Cycles is the completion time of the last instruction: the parallel
	// execution time.
	Cycles int64
	// Segments maps misprediction distance (segment instruction count) to
	// aggregate statistics.  Populated only for the SP model, which is the
	// machine the paper's Figures 6 and 7 characterize.
	Segments map[int64]SegAgg
	// RecursionDrops counts block instances whose control dependence was
	// discarded by the paper's recursion approximation (§4.4.1).  Always 0
	// for models without control dependence.
	RecursionDrops int64
	// Widths, when Config.TrackWidths was set, maps per-cycle issue width
	// to the number of cycles with that width — the machine width the
	// limit would need.
	Widths map[int64]int64
}

// Parallelism is the ratio of sequential to parallel execution time.
func (r Result) Parallelism() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}
