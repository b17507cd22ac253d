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
	// Only .data is staged; .bss lies after it, inside [DataBase,
	// HeapFree), and is left to install.
	if string(ld.Data) != string(o.Data) {
		t.Fatalf("staged data %q, want .data %q", ld.Data, o.Data)
	}
	scratch := ld.Symbols["scratch"]
	if scratch < ld.DataBase+uint64(len(ld.Data)) || scratch+64 > ld.HeapFree {
		t.Fatalf("bss [%#x, %#x) outside [DataBase+len(Data), HeapFree) = [%#x, %#x)",
			scratch, scratch+64, ld.DataBase+uint64(len(ld.Data)), ld.HeapFree)
	}

	// Installed, the sections land at their relocated addresses and the
	// whole segment after .data reads zero.
	e := install(t, ld)
	b, f := e.Mem.Read8(ld.Symbols["greet"])
	if f != nil || b != 'h' {
		t.Errorf("data not copied: %c %v", b, f)
	}
	text, f := e.Mem.Read(ld.TextBase, len(ld.Text))
	if f != nil || string(text) != string(ld.Text) {
		t.Errorf("text not copied: %v", f)
	}
	seg, f := e.Mem.Read(ld.DataBase, int(ld.HeapFree-ld.DataBase))
	if f != nil {
		t.Fatal(f)
	}
	if want := append(append([]byte(nil), ld.Data...), make([]byte, len(seg)-len(ld.Data))...); string(seg) != string(want) {
		t.Errorf("installed data segment %x, want %x", seg, want)
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
		insts = vr.Dis.Insts
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
