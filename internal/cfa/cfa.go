// Package cfa implements control-flow analysis over the clipped
// disassembler's output: basic-block CFG recovery, dominator-tree
// computation and the small dataflow primitives (block-local register
// definition sets, instruction-level predecessors, coverage gaps) the
// verifier's dominance, dead-byte and target-list passes are built on.
//
// The package is part of the in-enclave TCB: like internal/disasm it may
// depend only on internal/isa and the standard library (enforced by
// internal/lint), and every analysis is a pure function of the disassembly
// result plus the proof's branch-target list — no I/O, no global state.
//
// Edge model. Blocks are split at every offset the disassembler marked as a
// block start (entries, direct-branch targets, fall-through successors of
// branches) and after every control-transfer instruction. Successors:
//
//   - jmp/jcc/call: the direct target; jcc and call additionally fall
//     through (the call→fall-through edge stands in for the path through
//     the callee, whose return is pinned to exactly that continuation by
//     P5's shadow stack);
//   - jmp reg / call reg: every offset on the proof's branch-target list
//     (P5's CFI guard pins indirect transfers to exactly that set);
//     call reg also falls through;
//   - ret/hlt/trap: none (returns are subsumed by call→fall-through).
//
// A virtual root block precedes the program entry and every listed branch
// target, making the graph single-rooted for dominance: a listed target is
// legitimately enterable by any guarded indirect branch, so no annotation
// placed before it can be assumed un-bypassed. With these roots the
// reachability closure of the CFG coincides exactly with the set of decoded
// instructions, which is what makes the dead-byte pass's "unreachable text
// byte" a well-defined notion.
package cfa

import (
	"slices"

	"deflection/internal/disasm"
	"deflection/internal/isa"
)

// Root is the block ID of the virtual root.
const Root = 0

// Block is one basic block: a maximal straight-line instruction sequence
// entered only at Start.
type Block struct {
	// ID is the block's index in Graph.Blocks; Root for the virtual root.
	ID int
	// Start/End delimit the half-open text-offset span [Start, End).
	// The virtual root has Start = End = -1.
	Start, End int64
	// Insts lists the block's instructions in address order (empty for the
	// virtual root). It aliases Dis.Insts and must not be modified.
	Insts []disasm.Inst
	// Succs/Preds are CFG-adjacent block IDs, deduplicated, in ascending
	// order.
	Succs, Preds []int
}

// Last returns the block's final instruction (its terminator when the block
// ends in a control transfer).
func (b *Block) Last() disasm.Inst { return b.Insts[len(b.Insts)-1] }

// DefMask returns the set of registers written by any instruction of the
// block, as a bitmask indexed by isa.Reg. Annotation instructions are
// included: the mask is the block-local "def set" of the reaching-
// definitions pass, and over-approximating it only makes that pass
// stricter.
func (b *Block) DefMask() uint16 {
	var m uint16
	for i := range b.Insts {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if b.Insts[i].Inst.WritesReg(r) {
				m |= 1 << r
			}
		}
	}
	return m
}

// Graph is a recovered control-flow graph with its dominator tree.
type Graph struct {
	// Dis is the disassembly the graph was built from.
	Dis *disasm.Result
	// Entry is the program entry offset; Targets the proof's indirect
	// branch-target list.
	Entry   int64
	Targets []int64

	// Blocks holds the virtual root at index Root followed by the basic
	// blocks in ascending Start order.
	Blocks []*Block

	// Edges counts CFG edges (excluding the virtual root's).
	Edges int

	blockOf []int32 // instruction position → containing block ID
	rpo     []int   // reverse postorder from the virtual root
	rpoNum  []int   // block ID → position in rpo
	idom    []int   // block ID → immediate dominator ID (-1 unreachable)

	// predStart/preds hold InstPreds in compressed rows: the predecessors
	// of instruction position i are preds[predStart[i]:predStart[i+1]].
	// Built on first use.
	predStart []int32
	preds     []int32
}

// Build recovers the CFG for a successful disassembly and computes its
// dominator tree. entry and targets must be the same roots the disassembly
// ran with.
func Build(dis *disasm.Result, entry int64, targets []int64) *Graph {
	g := &Graph{
		Dis:     dis,
		Entry:   entry,
		Targets: append([]int64(nil), targets...),
		blockOf: make([]int32, len(dis.Insts)),
	}
	g.splitBlocks()
	g.connect()
	g.computeDominators()
	return g
}

// splitBlocks partitions the decoded instructions into basic blocks: a
// block starts at every block start the disassembler marked, after every
// gap in the decoded bytes and after every control transfer.
func (g *Graph) splitBlocks() {
	insts := g.Dis.Insts
	var firsts []int
	for i, in := range insts {
		if i == 0 || g.Dis.BlockStart(i) || in.Off != insts[i-1].End() || insts[i-1].Op.IsBranch() {
			firsts = append(firsts, i)
		}
	}
	blocks := make([]Block, len(firsts)+1)
	blocks[Root] = Block{ID: Root, Start: -1, End: -1}
	g.Blocks = make([]*Block, len(blocks))
	g.Blocks[Root] = &blocks[Root]
	for k, lo := range firsts {
		hi := len(insts)
		if k+1 < len(firsts) {
			hi = firsts[k+1]
		}
		id := k + 1
		blocks[id] = Block{ID: id, Start: insts[lo].Off, End: insts[hi-1].End(), Insts: insts[lo:hi:hi]}
		g.Blocks[id] = &blocks[id]
		for i := lo; i < hi; i++ {
			g.blockOf[i] = int32(id)
		}
	}
}

// blockID returns the ID of the block containing the instruction at off,
// or -1 when off is not a decoded instruction start.
func (g *Graph) blockID(off int64) int {
	if i := g.Dis.Index(off); i >= 0 {
		return int(g.blockOf[i])
	}
	return -1
}

// connect adds the CFG edges.
func (g *Graph) connect() {
	// Indirect-branch successor set: every listed target's block.
	var targetBlocks []int
	seen := make([]bool, len(g.Blocks))
	for _, t := range g.Targets {
		if id := g.blockID(t); id >= 0 && !seen[id] {
			seen[id] = true
			targetBlocks = append(targetBlocks, id)
		}
	}
	addEdge := func(from, to int) {
		if to >= 0 {
			g.Blocks[from].Succs = append(g.Blocks[from].Succs, to)
		}
	}

	for _, b := range g.Blocks[1:] {
		last := b.Last()
		switch last.Op {
		case isa.OpJmp:
			addEdge(b.ID, g.blockID(disasm.DirectTarget(last)))
		case isa.OpJcc, isa.OpCall:
			addEdge(b.ID, g.blockID(disasm.DirectTarget(last)))
			addEdge(b.ID, g.blockID(last.End()))
		case isa.OpJmpR, isa.OpCallR:
			b.Succs = append(b.Succs, targetBlocks...)
			if last.Op == isa.OpCallR {
				addEdge(b.ID, g.blockID(last.End()))
			}
		case isa.OpRet, isa.OpHlt, isa.OpTrap:
			// No successors.
		default:
			addEdge(b.ID, g.blockID(last.End()))
		}
	}

	// Virtual root → entry and every listed target.
	addEdge(Root, g.blockID(g.Entry))
	g.Blocks[Root].Succs = append(g.Blocks[Root].Succs, targetBlocks...)

	// Blocks are visited in ascending ID order, so every Preds list comes
	// out sorted.
	for _, b := range g.Blocks {
		slices.Sort(b.Succs)
		b.Succs = slices.Compact(b.Succs)
		for _, to := range b.Succs {
			g.Blocks[to].Preds = append(g.Blocks[to].Preds, b.ID)
		}
		if b.ID != Root {
			g.Edges += len(b.Succs)
		}
	}
}

// BlockAt returns the block containing the instruction at off, or nil when
// off is not a decoded instruction start.
func (g *Graph) BlockAt(off int64) *Block {
	if id := g.blockID(off); id >= 0 {
		return g.Blocks[id]
	}
	return nil
}

// InstPreds returns the positions (in Dis.Insts) of every instruction that
// can immediately precede instruction position i in some execution: its
// linear predecessor when that one falls through and every direct branch
// targeting it, in address order, then — when it is on the branch-target
// list — every indirect branch, in address order. The lists are built
// once, on first use.
func (g *Graph) InstPreds(i int) []int32 {
	if g.predStart == nil {
		g.buildInstPreds()
	}
	return g.preds[g.predStart[i]:g.predStart[i+1]]
}

func (g *Graph) buildInstPreds() {
	insts := g.Dis.Insts
	listed := make([]bool, len(insts))
	for _, t := range g.Targets {
		if i := g.Dis.Index(t); i >= 0 {
			listed[i] = true
		}
	}
	var indirect []int32
	// each calls f(to, from) for every edge, in the order the rows list
	// them.
	each := func(f func(to int, from int32)) {
		for from, in := range insts {
			if !in.Op.Terminates() {
				if to := g.Dis.Index(in.End()); to >= 0 {
					f(to, int32(from))
				}
			}
			if in.Op == isa.OpJmp || in.Op == isa.OpJcc || in.Op == isa.OpCall {
				if to := g.Dis.Index(disasm.DirectTarget(in)); to >= 0 {
					f(to, int32(from))
				}
			}
		}
		for to, ok := range listed {
			if ok {
				for _, from := range indirect {
					f(to, from)
				}
			}
		}
	}
	for from, in := range insts {
		if in.Op.IsIndirectBranch() {
			indirect = append(indirect, int32(from))
		}
	}
	next := make([]int32, len(insts)+1)
	each(func(to int, _ int32) { next[to+1]++ })
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	g.predStart = slices.Clone(next)
	g.preds = make([]int32, next[len(insts)])
	each(func(to int, from int32) {
		g.preds[next[to]] = from
		next[to]++
	})
}

// Reachable reports whether the block is reachable from the virtual root.
// By construction every recovered block is (the disassembler only decodes
// from the same roots), so false indicates an inconsistency worth flagging.
func (g *Graph) Reachable(id int) bool { return g.idom[id] >= 0 || id == Root }

// Range is a half-open [Lo, Hi) span of text offsets.
type Range struct{ Lo, Hi int64 }

// DeadRanges returns the maximal spans of text bytes not covered by any
// decoded instruction — bytes unreachable from the entry and the
// branch-target list, which a well-formed generator never emits and which
// could hide side-loaded code.
func (g *Graph) DeadRanges(textLen int) []Range {
	var dead []Range
	var pos int64
	for _, in := range g.Dis.Insts {
		if in.Off > pos {
			dead = append(dead, Range{Lo: pos, Hi: in.Off})
		}
		if end := in.End(); end > pos {
			pos = end
		}
	}
	if pos < int64(textLen) {
		dead = append(dead, Range{Lo: pos, Hi: int64(textLen)})
	}
	return dead
}
