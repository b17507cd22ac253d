// Package disasm implements the clipped recursive-descent disassembler of
// the bootstrap enclave (the paper's trimmed Capstone, Section V-B).
//
// Disassembly starts from the program entry and every address on the
// indirect-branch target list, follows direct control flow, and defers
// call/jump targets onto a worklist ("deferred code to be disassembled at a
// later time using the recursive descent algorithm"). Because the code
// generator resolves all indirect control flow onto the target list, the
// traversal reaches the complete control flow of a well-formed binary.
package disasm

import (
	"errors"
	"fmt"
	"math"

	"deflection/internal/isa"
)

// ErrOverlap is returned when a branch target lands inside the byte span of
// a previously decoded instruction. Overlapping decodings are how annotation
// sequences could be bypassed, so the verifier treats this as rejection.
var ErrOverlap = errors.New("disasm: branch target inside another instruction")

// Inst is a decoded instruction at a known offset.
type Inst struct {
	isa.Inst
	Off int64
	Len int
}

// End returns the offset just past the instruction.
func (in Inst) End() int64 { return in.Off + int64(in.Len) }

// Result is the outcome of a disassembly pass: the one program
// representation the CFG builder, the verifier and the rewriter share.
// Every per-instruction fact is indexed by position in Insts, never by a
// map keyed on text offset.
type Result struct {
	// Insts lists the decoded instructions in ascending offset order.
	Insts []Inst

	index      []int32 // text offset → position in Insts; -1 where no instruction starts
	blockStart []bool  // position → the instruction begins a basic block
	blocks     int
}

// Index returns the position in Insts of the instruction starting at off,
// or -1 when no decoded instruction starts there.
func (r *Result) Index(off int64) int {
	if off < 0 || off >= int64(len(r.index)) {
		return -1
	}
	return int(r.index[off])
}

// At returns the instruction decoded at off.
func (r *Result) At(off int64) (Inst, bool) {
	if i := r.Index(off); i >= 0 {
		return r.Insts[i], true
	}
	return Inst{}, false
}

// BlockStart reports whether Insts[i] begins a basic block: an entry
// point, a branch target, or the fall-through successor of a branch.
func (r *Result) BlockStart(i int) bool { return r.blockStart[i] }

// Blocks returns the number of discovered basic blocks (trace/report
// statistic).
func (r *Result) Blocks() int { return r.blocks }

// DirectTarget resolves the target offset of a direct branch instruction.
func DirectTarget(in Inst) int64 { return in.End() + in.Imm }

// Offset classes of Disassemble's table: a value v >= 0 holds flags, a
// value v < 0 marks an offset inside the instruction that starts at -v-1.
const (
	decoded    int32 = 1 << iota // an instruction starts here
	blockEntry                   // a basic block starts here
)

// isInst reports whether table value v marks an instruction start.
func isInst(v int32) bool { return v > 0 && v&decoded != 0 }

// Disassemble decodes text starting from every offset in entries.
func Disassemble(text []byte, entries []int64) (*Result, error) {
	if len(text) >= math.MaxInt32 {
		return nil, fmt.Errorf("disasm: text of %d bytes too large", len(text))
	}
	// at classifies every offset, one past the end included (control flow
	// may fall there).
	at := make([]int32, len(text)+1)
	n := 0

	work := make([]int64, 0, len(entries))
	enqueue := func(off int64) error {
		if off < 0 || off > int64(len(text)) {
			return fmt.Errorf("disasm: branch target %#x outside text (len %d)", off, len(text))
		}
		v := at[off]
		if v < 0 {
			return fmt.Errorf("%w: target %#x splits instruction at %#x", ErrOverlap, off, -int64(v)-1)
		}
		at[off] |= blockEntry
		if !isInst(v) {
			work = append(work, off)
		}
		return nil
	}
	for _, e := range entries {
		if err := enqueue(e); err != nil {
			return nil, err
		}
	}

	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if v := at[off]; isInst(v) {
				break
			} else if v < 0 {
				return nil, fmt.Errorf("%w: fall-through into middle of instruction at %#x (from %#x)", ErrOverlap, -int64(v)-1, off)
			}
			if off >= int64(len(text)) {
				return nil, fmt.Errorf("disasm: control flow runs past end of text at %#x", off)
			}
			raw, size, err := isa.Decode(text[off:])
			if err != nil {
				return nil, fmt.Errorf("disasm: at %#x: %w", off, err)
			}
			in := Inst{Inst: raw, Off: off, Len: size}
			at[off] |= decoded
			n++
			for b := off + 1; b < in.End(); b++ {
				if isInst(at[b]) {
					return nil, fmt.Errorf("%w: instruction at %#x overlaps instruction at %#x", ErrOverlap, off, b)
				}
				at[b] = -int32(off) - 1
			}

			switch raw.Op {
			case isa.OpJmp:
				err = enqueue(DirectTarget(in))
			case isa.OpJcc, isa.OpCall:
				if err = enqueue(DirectTarget(in)); err == nil {
					err = enqueue(in.End())
				}
			case isa.OpCallR:
				// Indirect: successors come from the branch-target list,
				// which is already in entries. A CallR also falls through
				// on return.
				err = enqueue(in.End())
			}
			if err != nil {
				return nil, err
			}
			if raw.Op.Terminates() {
				break
			}
			off = in.End()
		}
	}

	// A second pass in address order lays the instructions and block-start
	// flags out by position, decoding each instruction again rather than
	// keeping the first decodings in a growing list, and turns the table
	// into the offset → position index. Every enqueued offset was decoded,
	// so each block start is an instruction start.
	r := &Result{
		Insts:      make([]Inst, 0, n),
		index:      at[:len(text)],
		blockStart: make([]bool, 0, n),
	}
	for off, v := range at {
		if !isInst(v) {
			at[off] = -1
			continue
		}
		raw, size, _ := isa.Decode(text[off:]) // decoded without error above
		at[off] = int32(len(r.Insts))
		r.Insts = append(r.Insts, Inst{Inst: raw, Off: int64(off), Len: size})
		r.blockStart = append(r.blockStart, v&blockEntry != 0)
		if v&blockEntry != 0 {
			r.blocks++
		}
	}
	return r, nil
}

// Linear decodes text sequentially from offset 0, ignoring control flow.
// Tests use it to scan a whole text; the verifier does not.
func Linear(text []byte) ([]Inst, error) {
	var out []Inst
	var off int64
	for off < int64(len(text)) {
		raw, n, err := isa.Decode(text[off:])
		if err != nil {
			return out, fmt.Errorf("disasm: at %#x: %w", off, err)
		}
		out = append(out, Inst{Inst: raw, Off: off, Len: n})
		off += int64(n)
	}
	return out, nil
}
