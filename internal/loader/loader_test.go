package loader_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"deflection/internal/compiler"
	"deflection/internal/disasm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/loader"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

func testLayout() enclave.Layout { return enclave.NewLayout(enclave.DefaultConfig()) }

// install copies a relocated binary into a fresh bootstrap enclave through
// runtime.InstallImage, the only path that writes a binary into enclave
// memory.
func install(t *testing.T, ld *loader.Loaded) *enclave.Enclave {
	t.Helper()
	b, err := runtime.New(enclave.DefaultConfig(), runtime.Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.InstallImage(&runtime.Image{
		Entry:         ld.Entry,
		TextBase:      ld.TextBase,
		TextEnd:       ld.TextEnd,
		DataBase:      ld.DataBase,
		HeapFree:      ld.HeapFree,
		Text:          ld.Text,
		Data:          ld.Data,
		BranchTable:   ld.Table,
		BranchTargets: ld.BranchTargets,
		Layout:        ld.Layout,
	}); err != nil {
		t.Fatal(err)
	}
	return b.Enclave()
}

func buildObject(t *testing.T) *obj.Object {
	t.Helper()
	a := obj.NewAssembler()
	if err := a.AddData("greet", []byte("hi\x00")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddBSS("scratch", 64); err != nil {
		t.Fatal(err)
	}
	body := []obj.Item{
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX}, SymRef: "greet"},
		obj.InstItem(isa.Inst{Op: isa.OpMovBRM, Dst: isa.RAX, Mem: isa.Mem(isa.RBX, 0)}),
		obj.BranchItem(isa.Inst{Op: isa.OpCall}, "fn"),
		obj.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFunc("fn", []obj.Item{
		obj.InstItem(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}),
		obj.InstItem(isa.Inst{Op: isa.OpRet}),
	}); err != nil {
		t.Fatal(err)
	}
	a.AddBranchTarget("fn")
	a.SetEntry("_start")
	o, err := a.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLoadPlacesSections(t *testing.T) {
	l := testLayout()
	o := buildObject(t)
	ld, err := loader.Relocate(l, o)
	if err != nil {
		t.Fatal(err)
	}
	if ld.TextBase != l.CodeBase {
		t.Errorf("text base %#x", ld.TextBase)
	}
	if ld.DataBase != l.HeapBase {
		t.Errorf("data base %#x", ld.DataBase)
	}
	if ld.HeapFree <= ld.DataBase {
		t.Error("heap free pointer not advanced")
	}
	if ld.Entry != ld.Symbols["_start"] {
		t.Error("entry mismatch")
	}
	// The staged data segment spans [DataBase, HeapFree): .data, then
	// zeroed .bss.
	if got := uint64(len(ld.Data)); got != ld.HeapFree-ld.DataBase {
		t.Fatalf("staged data %d bytes, want %d", got, ld.HeapFree-ld.DataBase)
	}
	if b := ld.Data[ld.Symbols["greet"]-ld.DataBase]; b != 'h' {
		t.Errorf("staged data = %q, want greeting", b)
	}
	for i := ld.Symbols["scratch"] - ld.DataBase; i < uint64(len(ld.Data)); i++ {
		if ld.Data[i] != 0 {
			t.Fatalf("bss byte %d = %#x, want 0", i, ld.Data[i])
		}
	}

	// Installed, the sections land at their relocated addresses.
	e := install(t, ld)
	b, f := e.Mem.Read8(ld.Symbols["greet"])
	if f != nil || b != 'h' {
		t.Errorf("data not copied: %c %v", b, f)
	}
	text, f := e.Mem.Read(ld.TextBase, len(ld.Text))
	if f != nil || string(text) != string(ld.Text) {
		t.Errorf("text not copied: %v", f)
	}
}

func TestLoadAppliesRelocations(t *testing.T) {
	o := buildObject(t)
	ld, err := loader.Relocate(testLayout(), o)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := isa.Decode(ld.Text)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpMovRI || uint64(in.Imm) != ld.Symbols["greet"] {
		t.Errorf("relocated imm = %#x, want %#x", in.Imm, ld.Symbols["greet"])
	}
}

func TestLoadTranslatesBranchTargets(t *testing.T) {
	o := buildObject(t)
	ld, err := loader.Relocate(testLayout(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.BranchTargets) != 1 || ld.BranchTargets[0] != ld.Symbols["fn"] {
		t.Fatalf("branch targets = %v", ld.BranchTargets)
	}
	if len(ld.Table) != 8 || binary.LittleEndian.Uint64(ld.Table) != ld.Symbols["fn"] {
		t.Fatalf("staged table = %x", ld.Table)
	}
	// Installed, the table is published in the read-only branch-table
	// region.
	e := install(t, ld)
	v, f := e.Mem.Read64(e.Layout.BrTableBase)
	if f != nil || v != ld.Symbols["fn"] {
		t.Errorf("table entry = %#x %v", v, f)
	}
	if p := e.Mem.PermAt(e.Layout.BrTableBase); p != enclave.PermR {
		t.Errorf("branch table perm = %v, want r--", p)
	}
}

func TestLoadRejectsOversizedText(t *testing.T) {
	cfg := enclave.DefaultConfig()
	cfg.CodeCap = enclave.PageSize
	o := buildObject(t)
	o.Text = make([]byte, enclave.PageSize+1)
	if _, err := loader.Relocate(enclave.NewLayout(cfg), o); !errors.Is(err, loader.ErrTooLarge) {
		t.Fatal("oversized text must fail")
	}
}

func TestLoadRejectsOversizedBSS(t *testing.T) {
	o := buildObject(t)
	o.BSSSize = 1 << 40
	if _, err := loader.Relocate(testLayout(), o); !errors.Is(err, loader.ErrTooLarge) {
		t.Fatal("oversized bss must fail")
	}
}

func TestLoadRejectsBranchTargetOutsideText(t *testing.T) {
	o := buildObject(t)
	o.BranchTargets = append(o.BranchTargets, obj.BranchTarget{Symbol: "greet"})
	if _, err := loader.Relocate(testLayout(), o); !errors.Is(err, loader.ErrUnresolved) {
		t.Fatal("data-section branch target must fail")
	}
}

func TestRewriteImmediates(t *testing.T) {
	src := `
int g;
int main() {
	g = 7;
	return g;
}`
	o, err := compiler.Compile(src, compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		t.Fatal(err)
	}
	l := testLayout()
	ld, err := loader.Relocate(l, o)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, 0, len(ld.BranchTargets))
	for _, bt := range ld.BranchTargets {
		offs = append(offs, int64(bt-ld.TextBase))
	}
	vr, err := verifier.Verify(ld.Text, verifier.Options{
		Required:            policy.SetP1P6,
		EntryOffset:         int64(ld.Entry - ld.TextBase),
		BranchTargetOffsets: offs,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loader.RewriteImmediates(ld, vr.Dis)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoreBounds == 0 || stats.StackBounds == 0 || stats.SSASites == 0 {
		t.Fatalf("rewrite stats incomplete: %+v", stats)
	}

	// No magic placeholder may survive in the rewritten text.
	insts, err := disasm.Linear(ld.Text)
	if err != nil {
		// Linear decode can fail on data-like padding; fall back to the
		// verified instruction set.
		insts = nil
		for _, off := range vr.Dis.Offsets {
			insts = append(insts, vr.Dis.Insts[off])
		}
	}
	for _, in := range insts {
		switch in.Imm {
		case policy.MagicStoreLo, policy.MagicStoreHi, policy.MagicStackLo, policy.MagicStackHi:
			t.Fatalf("placeholder immediate survives at %#x", in.Off)
		}
		if !in.Mem.HasBase && !in.Mem.HasIndex &&
			(in.Mem.Disp == policy.MagicSSAMarkerDisp || in.Mem.Disp == policy.MagicAEXCountDisp) {
			t.Fatalf("placeholder displacement survives at %#x", in.Off)
		}
	}

	// The rewritten bounds must equal the layout's store window.
	found := false
	for _, in := range insts {
		if in.Op == isa.OpMovRI && uint64(in.Imm) == l.StoreLo() {
			found = true
		}
	}
	if !found {
		t.Error("rewritten store lower bound not found")
	}
}
