package disasm

import (
	"fmt"
	"testing"

	"deflection/internal/isa"
)

// FuzzDisassemble feeds arbitrary bytes to both disassembly modes. The
// verifier runs Disassemble on attacker-controlled text before anything
// else, so the decoder must never panic, never decode past the buffer and
// never report overlapping instructions — whatever the input. Errors are
// fine; inconsistency is not. Each input runs from a program entry and one
// listed target, and Disassemble must agree with referenceDisassemble on
// the instructions, the block starts and the error string.
func FuzzDisassemble(f *testing.F) {
	f.Add(encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpHlt},
	), int64(0), int64(0))

	// Control flow over dead bytes, both jcc edges, a call.
	dead := []byte{0xFF, 0xFF, 0xFF}
	jmp := isa.Inst{Op: isa.OpJmp, Imm: int64(len(dead))}
	text := isa.AppendEncode(nil, &jmp)
	text = append(text, dead...)
	hlt := isa.Inst{Op: isa.OpHlt}
	text = isa.AppendEncode(text, &hlt)
	f.Add(text, int64(0), int64(0))

	f.Add(encode(
		isa.Inst{Op: isa.OpCmpRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpJcc, Cond: isa.CondE, Imm: 2},
		isa.Inst{Op: isa.OpHlt},
		isa.Inst{Op: isa.OpTrap, Imm: 1},
	), int64(0), int64(0))
	f.Add([]byte{0x00}, int64(0), int64(0))
	f.Add([]byte{}, int64(5), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, entry, listed int64) {
		entries := []int64{entry, listed}
		r, err := Disassemble(data, entries)
		ref, refErr := referenceDisassemble(data, entries)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("error %v, reference model %v", err, refErr)
		}
		if err == nil {
			checkResult(t, r, data)
			matchReference(t, r, ref)
		}
		lin, _ := Linear(data)
		// Linear decodes a contiguous prefix: each instruction starts where
		// the previous one ended.
		var off int64
		for _, in := range lin {
			if in.Off != off {
				t.Fatalf("linear decode not contiguous: inst at %#x, want %#x", in.Off, off)
			}
			if in.End() > int64(len(data)) {
				t.Fatalf("linear decode past end: [%#x,%#x) text len %d", in.Off, in.End(), len(data))
			}
			off = in.End()
		}
	})
}

// checkResult asserts the structural invariants of a successful decode:
// instructions in address order, inside the text, not overlapping, and an
// offset index that agrees with them at every offset.
func checkResult(t *testing.T, r *Result, data []byte) {
	t.Helper()
	var prevEnd int64
	for i, in := range r.Insts {
		if in.Off < 0 || in.End() > int64(len(data)) {
			t.Fatalf("instruction [%#x,%#x) outside text len %d", in.Off, in.End(), len(data))
		}
		if in.Off < prevEnd {
			t.Fatalf("instruction %d at %#x overlaps previous ending at %#x", i, in.Off, prevEnd)
		}
		prevEnd = in.End()
	}
	pos := 0
	for off := int64(-1); off <= int64(len(data))+1; off++ {
		want := -1
		if pos < len(r.Insts) && r.Insts[pos].Off == off {
			want = pos
			pos++
		}
		if got := r.Index(off); got != want {
			t.Fatalf("Index(%#x) = %d, want %d", off, got, want)
		}
		if in, ok := r.At(off); ok != (want >= 0) || ok && in != r.Insts[want] {
			t.Fatalf("At(%#x) = %v, %v disagrees with Insts", off, in, ok)
		}
	}
}

// matchReference requires r to hold exactly the reference model's
// instructions, block starts and block count.
func matchReference(t *testing.T, r *Result, ref *referenceResult) {
	t.Helper()
	if len(r.Insts) != len(ref.insts) {
		t.Fatalf("%d instructions, reference model %d", len(r.Insts), len(ref.insts))
	}
	for i, in := range r.Insts {
		want, ok := ref.insts[in.Off]
		if !ok || in != want {
			t.Fatalf("instruction %d at %#x = %+v, reference model %+v (decoded %v)", i, in.Off, in, want, ok)
		}
		if r.BlockStart(i) != ref.blockStarts[in.Off] {
			t.Fatalf("block start at %#x = %v, reference model %v", in.Off, r.BlockStart(i), ref.blockStarts[in.Off])
		}
	}
	if r.Blocks() != len(ref.blockStarts) {
		t.Fatalf("%d blocks, reference model %d", r.Blocks(), len(ref.blockStarts))
	}
}

// referenceResult is the outcome of referenceDisassemble.
type referenceResult struct {
	insts       map[int64]Inst
	blockStarts map[int64]bool
}

// referenceDisassemble is the straightforward map-keyed recursive-descent
// disassembler that Disassemble replaced, kept as the model FuzzDisassemble
// compares it with: the same worklist order, the same checks and the same
// error strings, with every offset fact in a map.
func referenceDisassemble(text []byte, entries []int64) (*referenceResult, error) {
	r := &referenceResult{insts: make(map[int64]Inst), blockStarts: make(map[int64]bool)}
	// covered maps every byte offset inside a decoded instruction (but not
	// its start) to the instruction start.
	covered := make(map[int64]int64)
	var work []int64
	enqueue := func(off int64) error {
		if off < 0 || off > int64(len(text)) {
			return fmt.Errorf("disasm: branch target %#x outside text (len %d)", off, len(text))
		}
		r.blockStarts[off] = true
		if _, done := r.insts[off]; done {
			return nil
		}
		if start, mid := covered[off]; mid {
			return fmt.Errorf("%w: target %#x splits instruction at %#x", ErrOverlap, off, start)
		}
		work = append(work, off)
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
			if _, done := r.insts[off]; done {
				break
			}
			if start, mid := covered[off]; mid {
				return nil, fmt.Errorf("%w: fall-through into middle of instruction at %#x (from %#x)", ErrOverlap, start, off)
			}
			if off >= int64(len(text)) {
				return nil, fmt.Errorf("disasm: control flow runs past end of text at %#x", off)
			}
			raw, n, err := isa.Decode(text[off:])
			if err != nil {
				return nil, fmt.Errorf("disasm: at %#x: %w", off, err)
			}
			in := Inst{Inst: raw, Off: off, Len: n}
			r.insts[off] = in
			for b := off + 1; b < in.End(); b++ {
				if _, dup := r.insts[b]; dup {
					return nil, fmt.Errorf("%w: instruction at %#x overlaps instruction at %#x", ErrOverlap, off, b)
				}
				covered[b] = off
			}
			var next []int64
			switch raw.Op {
			case isa.OpJmp:
				next = []int64{DirectTarget(in)}
			case isa.OpJcc, isa.OpCall:
				next = []int64{DirectTarget(in), in.End()}
			case isa.OpCallR:
				next = []int64{in.End()}
			}
			for _, t := range next {
				if err := enqueue(t); err != nil {
					return nil, err
				}
			}
			if raw.Op.Terminates() {
				break
			}
			off = in.End()
		}
	}
	return r, nil
}
