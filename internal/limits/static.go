package limits

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ilplimit/internal/cfg"
	"ilplimit/internal/dataflow"
	"ilplimit/internal/isa"
	"ilplimit/internal/predict"
	"ilplimit/internal/trace"
)

// Static bundles everything the analyzers need that does not change between
// machine models: the program, its control-flow graphs and reverse
// dominance frontiers (flattened to global block ids), the fused
// per-instruction table and the branch predictor.
type Static struct {
	Prog   *isa.Program
	Graphs []*cfg.Graph
	Pred   predict.Oracle

	// blockRDF lists, per global block id, the global ids of the blocks in
	// its reverse dominance frontier (always branch blocks).
	blockRDF  [][]int32
	numBlocks int

	// meta is the fused per-instruction metadata table consumed by the
	// analyzer hot loop and the annotation pass (see predecode.go): one
	// packed record per static instruction holds its global block id,
	// leader, inline and unroll bits, operand registers and op class.
	meta []instrMeta
}

// NewStatic builds the static context: per-procedure CFGs, the flattened
// control-dependence tables, both trace filters folded into the fused
// table, and retains the supplied predictor (which may be nil for runs
// restricted to non-speculative models).
func NewStatic(p *isa.Program, pred predict.Oracle) (*Static, error) {
	st := &Static{Prog: p, Pred: pred}
	// blockOf maps every instruction to its global block id; isLeader
	// marks the first instruction of every block.
	blockOf := make([]int32, len(p.Instrs))
	isLeader := make([]bool, len(p.Instrs))
	for i := range blockOf {
		blockOf[i] = -1
	}
	for _, proc := range p.Procs {
		g, err := cfg.Build(p, proc)
		if err != nil {
			return nil, err
		}
		st.Graphs = append(st.Graphs, g)
		base := st.numBlocks
		for b := range g.Blocks {
			blk := &g.Blocks[b]
			isLeader[blk.Start] = true
			for i := blk.Start; i < blk.End; i++ {
				blockOf[i] = int32(base + b)
			}
			rdf := make([]int32, len(g.RDF[b]))
			for k, x := range g.RDF[b] {
				rdf[k] = int32(base + x)
			}
			st.blockRDF = append(st.blockRDF, rdf)
		}
		st.numBlocks += len(g.Blocks)
	}
	for i, b := range blockOf {
		if b == -1 {
			return nil, fmt.Errorf("limits: instruction %d (%s) outside every procedure",
				i, p.Instrs[i].String())
		}
	}
	st.buildMeta(blockOf, isLeader, trace.InlineMarks(p), dataflow.UnrollMarks(p, st.Graphs))
	return st, nil
}

// AnnotationFingerprint digests the static annotation tables — the
// per-instruction Flag* bits and block ids the Annotator stamps into
// every event — so a cached annotated trace can prove it was produced
// by an equivalent Static.  The predictor is deliberately excluded:
// predictor outcomes live in the trace's lane bits and are keyed
// separately (internal/tracestore.Key.Predictors), which lets a warm
// replay rebuild a Static without re-deriving the oracle.
func (st *Static) AnnotationFingerprint() uint32 {
	h := crc32.NewIEEE()
	var b [12]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(st.meta)))
	h.Write(b[:4])
	for i := range st.meta {
		binary.LittleEndian.PutUint32(b[0:], st.meta[i].flags)
		binary.LittleEndian.PutUint32(b[4:], uint32(st.meta[i].block))
		binary.LittleEndian.PutUint32(b[8:], uint32(i))
		h.Write(b[:])
	}
	return h.Sum32()
}
