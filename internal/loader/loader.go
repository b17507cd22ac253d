// Package loader implements the bootstrap enclave's dynamic loader (paper
// Section IV-D and Fig. 6): it parses the relocatable target binary received
// through the ECall interface, rebases its symbols for the enclave's
// address map, relocates the sections and translates the indirect-branch
// target list into in-enclave addresses. The loader only stages the result
// in memory it owns; after verification, its immediate rewriter
// (rewrite.go) patches the annotation placeholder bounds in the staged text
// with the real enclave addresses, and the runtime installs the bytes into
// enclave memory.
package loader

import (
	"encoding/binary"
	"errors"
	"fmt"

	"deflection/internal/enclave"
	"deflection/internal/obj"
)

// ErrTooLarge is returned when a section exceeds its enclave region.
var ErrTooLarge = errors.New("loader: section does not fit enclave region")

// ErrUnresolved is returned when the object's symbols, relocations, branch
// targets or entry point do not link.
var ErrUnresolved = errors.New("loader: unresolved object")

// Loaded describes a target binary relocated for an enclave layout.
type Loaded struct {
	// Layout is the enclave address map the binary was relocated for.
	Layout enclave.Layout

	// Entry is the absolute address of the entry symbol.
	Entry uint64
	// TextBase/TextEnd delimit the relocated code.
	TextBase, TextEnd uint64
	// DataBase is where .data begins (followed by .bss); HeapFree is the
	// first free heap address after .bss, available to the program.
	DataBase, HeapFree uint64

	// Text is the relocated code destined for [TextBase, TextEnd);
	// RewriteImmediates patches it in place.
	Text []byte
	// Data is the relocated .data, destined for DataBase. The rest of the
	// data segment, [DataBase+len(Data), HeapFree), is zero: alignment
	// padding and .bss, which is not staged.
	Data []byte
	// Table is the content of the read-only branch-table region:
	// BranchTargets as little-endian 64-bit words.
	Table []byte
	// BranchTargets are the translated in-enclave addresses of the
	// indirect-branch target list, in list order.
	BranchTargets []uint64
	// Symbols maps every object symbol to its absolute loaded address.
	Symbols map[string]uint64
	// Object is the parsed input object (its text is not relocated).
	Object *obj.Object
}

// TextBytes returns the staged relocated text (rewritten once
// RewriteImmediates has run).
func (ld *Loaded) TextBytes() ([]byte, error) { return ld.Text, nil }

// Load relocates o for e's layout; it does not write e's memory.
func Load(e *enclave.Enclave, o *obj.Object) (*Loaded, error) { return Relocate(e.Layout, o) }

// Relocate rebases o for layout l and stages the relocated text, the
// initial data segment and the branch table in the returned Loaded. It
// allocates no enclave.
func Relocate(l enclave.Layout, o *obj.Object) (*Loaded, error) {
	textBase := l.CodeBase
	if textBase+uint64(len(o.Text)) > l.CodeEnd {
		return nil, fmt.Errorf("%w: text %d bytes > code region %d", ErrTooLarge, len(o.Text), l.CodeEnd-l.CodeBase)
	}
	dataBase := l.HeapBase
	bssBase := dataBase + align8(uint64(len(o.Data)))
	heapFree := bssBase + align8(uint64(o.BSSSize))
	if heapFree > l.HeapEnd {
		return nil, fmt.Errorf("%w: data+bss %d bytes > heap region %d", ErrTooLarge, heapFree-dataBase, l.HeapEnd-l.HeapBase)
	}
	if len(o.BranchTargets)*8 > int(l.BrTableEnd-l.BrTableBase) {
		return nil, fmt.Errorf("%w: %d branch targets > table region", ErrTooLarge, len(o.BranchTargets))
	}

	// Rebase symbols.
	syms := make(map[string]uint64, len(o.Symbols))
	for _, s := range o.Symbols {
		var base uint64
		switch s.Section {
		case obj.SecText:
			base = textBase
		case obj.SecData:
			base = dataBase
		case obj.SecBSS:
			base = bssBase
		default:
			return nil, fmt.Errorf("%w: symbol %q in unknown section", ErrUnresolved, s.Name)
		}
		syms[s.Name] = base + uint64(s.Offset)
	}

	// Apply relocations on private copies of the sections.
	text := append([]byte(nil), o.Text...)
	data := append([]byte(nil), o.Data...)
	for _, r := range o.Relocs {
		addr, ok := syms[r.Symbol]
		if !ok {
			return nil, fmt.Errorf("%w: relocation against undefined symbol %q", ErrUnresolved, r.Symbol)
		}
		var sec []byte
		switch r.Section {
		case obj.SecText:
			sec = text
		case obj.SecData:
			sec = data
		default:
			return nil, fmt.Errorf("%w: relocation in unsupported section %v", ErrUnresolved, r.Section)
		}
		if r.Offset < 0 || int(r.Offset)+8 > len(sec) {
			return nil, fmt.Errorf("%w: relocation site %d out of range", ErrUnresolved, r.Offset)
		}
		binary.LittleEndian.PutUint64(sec[r.Offset:], addr+uint64(r.Addend))
	}

	// Translate the branch-target list to in-enclave addresses, staged as
	// the content of the read-only branch-table region.
	targets := make([]uint64, 0, len(o.BranchTargets))
	table := make([]byte, 0, 8*len(o.BranchTargets))
	for _, bt := range o.BranchTargets {
		addr, ok := syms[bt.Symbol]
		if !ok {
			return nil, fmt.Errorf("%w: branch target %q undefined", ErrUnresolved, bt.Symbol)
		}
		if addr < textBase || addr >= textBase+uint64(len(text)) {
			return nil, fmt.Errorf("%w: branch target %q outside text", ErrUnresolved, bt.Symbol)
		}
		targets = append(targets, addr)
		table = binary.LittleEndian.AppendUint64(table, addr)
	}

	entry, ok := syms[o.Entry]
	if !ok {
		return nil, fmt.Errorf("%w: entry symbol %q undefined", ErrUnresolved, o.Entry)
	}

	return &Loaded{
		Layout:        l,
		Entry:         entry,
		TextBase:      textBase,
		TextEnd:       textBase + uint64(len(text)),
		DataBase:      dataBase,
		HeapFree:      heapFree,
		Text:          text,
		Data:          data,
		Table:         table,
		BranchTargets: targets,
		Symbols:       syms,
		Object:        o,
	}, nil
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }
