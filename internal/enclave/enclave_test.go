package enclave

import (
	"testing"
	"testing/quick"
)

func newTestEnclave(t *testing.T) *Enclave {
	t.Helper()
	e, err := New(DefaultConfig(), []byte("test-consumer"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLayoutOrdering(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	seq := []uint64{
		l.ELRBase, l.CodeBase, l.CodeEnd, l.BrTableBase, l.BrTableEnd,
		l.ShadowBase, l.ShadowEnd, l.SSABase, l.SSAEnd, l.HeapBase,
		l.HeapEnd, l.StackLo, l.StackHi, l.ELREnd, l.UntrustedBase, l.UntrustedEnd,
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1] {
			t.Fatalf("layout not monotone at index %d: %#x < %#x", i, seq[i], seq[i-1])
		}
	}
	if l.StoreLo() != l.HeapBase || l.StoreHi() != l.StackHi {
		t.Error("store bounds should span heap..stack")
	}
	// Security-critical regions must be outside the store bounds.
	for _, addr := range []uint64{l.CodeBase, l.BrTableBase, l.ShadowBase, l.SSABase, l.SSAMarkerAddr(), l.AEXCountAddr()} {
		if addr >= l.StoreLo() && addr < l.StoreHi() {
			t.Errorf("security-critical address %#x inside store bounds", addr)
		}
	}
	// Untrusted memory must be outside ELRANGE.
	if e.InELRANGE(l.UntrustedBase) {
		t.Error("untrusted base inside ELRANGE")
	}
	if !e.InELRANGE(l.CodeBase) || !e.InELRANGE(l.StackHi-1) {
		t.Error("code/stack should be inside ELRANGE")
	}
}

func TestGuardPagesBetweenRegions(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	guards := []uint64{l.BrTableEnd, l.ShadowEnd, l.SSAEnd, l.HeapEnd, l.StackHi}
	for _, g := range guards {
		if p := e.Mem.PermAt(g); p != 0 {
			t.Errorf("page at %#x should be a guard (no perms), got %v", g, p)
		}
	}
	if f := e.Mem.Write64(l.HeapEnd, 1); f == nil {
		t.Error("write to guard page should fault")
	}
	if _, f := e.Mem.Read64(l.StackHi); f == nil {
		t.Error("read from guard page should fault")
	}
}

func TestPagePermissions(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	cases := []struct {
		name string
		addr uint64
		want Perm
	}{
		{"code", l.CodeBase, PermRWX},
		{"brtable", l.BrTableBase, PermR},
		{"shadow", l.ShadowBase, PermRW},
		{"ssa", l.SSABase, PermRW},
		{"heap", l.HeapBase, PermRW},
		{"stack", l.StackLo, PermRW},
		{"untrusted", l.UntrustedBase, PermRW},
	}
	for _, c := range cases {
		if got := e.Mem.PermAt(c.addr); got != c.want {
			t.Errorf("%s perm = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLeakChannelIsArchitecturallyOpen(t *testing.T) {
	// Writing outside ELRANGE must succeed at the architecture level —
	// blocking it is the job of verified annotations, not the hardware.
	e := newTestEnclave(t)
	if f := e.Mem.Write64(e.Layout.UntrustedBase, 0xdeadbeef); f != nil {
		t.Fatalf("untrusted write should succeed: %v", f)
	}
	v, f := e.Mem.Read64(e.Layout.UntrustedBase)
	if f != nil || v != 0xdeadbeef {
		t.Fatalf("untrusted read = %d, %v", v, f)
	}
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	e := newTestEnclave(t)
	base := e.Layout.HeapBase
	if f := e.Mem.Write(base, []byte{1, 2, 3, 4}); f != nil {
		t.Fatal(f)
	}
	got, f := e.Mem.Read(base, 4)
	if f != nil || string(got) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("read = %v, %v", got, f)
	}
	if f := e.Mem.Write8(base+1, 9); f != nil {
		t.Fatal(f)
	}
	b, f := e.Mem.Read8(base + 1)
	if f != nil || b != 9 {
		t.Fatalf("read8 = %d, %v", b, f)
	}
}

func TestMemory64RoundTripQuick(t *testing.T) {
	e := newTestEnclave(t)
	base := e.Layout.HeapBase
	size := e.Layout.HeapEnd - e.Layout.HeapBase - 8
	f := func(off uint32, v uint64) bool {
		addr := base + uint64(off)%size
		if fault := e.Mem.Write64(addr, v); fault != nil {
			return false
		}
		got, fault := e.Mem.Read64(addr)
		return fault == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryBoundsFaults(t *testing.T) {
	e := newTestEnclave(t)
	if _, f := e.Mem.Read64(0); f == nil {
		t.Error("read below base should fault")
	}
	if f := e.Mem.Write64(e.Mem.End(), 1); f == nil {
		t.Error("write past end should fault")
	}
	if _, f := e.Mem.Read(e.Mem.End()-4, 8); f == nil {
		t.Error("straddling read should fault")
	}
	if _, f := e.Mem.Read(e.Layout.HeapBase, -1); f == nil {
		t.Error("negative size should fault")
	}
	if f := (&Fault{Addr: 1, Access: AccessWrite, Size: 8}); f.Error() == "" {
		t.Error("fault must render")
	}
}

func TestWritesToReadOnlyPagesFault(t *testing.T) {
	e := newTestEnclave(t)
	if f := e.Mem.Write64(e.Layout.BrTableBase, 1); f == nil {
		t.Error("write to R-only branch table should fault")
	}
}

func TestFetchWindow(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	win, f := e.Mem.FetchWindow(l.CodeBase, 16)
	if f != nil || len(win) != 16 {
		t.Fatalf("fetch at code base: len=%d fault=%v", len(win), f)
	}
	if _, f := e.Mem.FetchWindow(l.HeapBase, 16); f == nil {
		t.Error("fetching from non-executable heap should fault (DEP)")
	}
	if _, f := e.Mem.FetchWindow(l.UntrustedBase, 16); f == nil {
		t.Error("fetching from untrusted memory should fault")
	}
	// A window near the end of code is clamped at the X boundary.
	win, f = e.Mem.FetchWindow(l.CodeEnd-4, 16)
	if f != nil {
		t.Fatalf("fetch near code end: %v", f)
	}
	if len(win) > 4+int(l.BrTableBase-l.CodeEnd) {
		// BrTable is R-only so the window must stop at CodeEnd.
		t.Errorf("window of %d bytes crosses X boundary", len(win))
	}
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	e1, err := New(DefaultConfig(), []byte("consumer-a"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(DefaultConfig(), []byte("consumer-a"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Measurement() != e2.Measurement() {
		t.Error("same identity + config must measure identically")
	}
	e3, err := New(DefaultConfig(), []byte("consumer-b"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Measurement() == e3.Measurement() {
		t.Error("different identity must change the measurement")
	}
	e4, err := New(PaperConfig(), []byte("consumer-a"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Measurement() == e4.Measurement() {
		t.Error("different layout must change the measurement")
	}
}

func TestSSASlots(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	if l.SSARegAddr(0) != l.SSAMarkerAddr() {
		t.Error("marker must alias the RAX save slot")
	}
	if l.SSARIPAddr() <= l.SSARegAddr(15) {
		t.Error("RIP slot must follow register slots")
	}
	if l.AEXCountAddr() <= l.SSARIPAddr() {
		t.Error("AEX count slot must follow the architectural save area")
	}
	if l.AEXCountAddr()+8 > l.SSAEnd {
		t.Error("AEX count slot must fit in the SSA page")
	}
}

func TestNewMemoryValidation(t *testing.T) {
	if _, err := NewMemory(100, PageSize); err == nil {
		t.Error("unaligned base should fail")
	}
	if _, err := NewMemory(PageSize, 100); err == nil {
		t.Error("unaligned size should fail")
	}
	if _, err := NewMemory(PageSize, 0); err == nil {
		t.Error("zero size should fail")
	}
}

func TestSetPermValidation(t *testing.T) {
	e := newTestEnclave(t)
	if err := e.Mem.SetPerm(0, PageSize, PermR); err == nil {
		t.Error("SetPerm outside memory should fail")
	}
}

func TestPermString(t *testing.T) {
	if PermRWX.String() != "rwx" || Perm(0).String() != "---" || PermR.String() != "r--" {
		t.Error("perm rendering broken")
	}
}

func TestMultiThreadLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 4
	e, err := New(cfg, []byte("mt"))
	if err != nil {
		t.Fatal(err)
	}
	l := e.Layout
	if l.Threads != 4 {
		t.Fatalf("threads = %d", l.Threads)
	}
	for i := 0; i < 4; i++ {
		lo, hi := l.StackLoFor(i), l.StackHiFor(i)
		if lo >= hi || lo < l.StackLo || hi > l.StackHi {
			t.Fatalf("thread %d stack [%#x,%#x) outside region", i, lo, hi)
		}
		// The page below each thread's stack is a guard.
		if p := e.Mem.PermAt(lo - PageSize); p != 0 {
			t.Errorf("thread %d: no guard below stack (perm %v)", i, p)
		}
		if p := e.Mem.PermAt(lo); p != PermRW {
			t.Errorf("thread %d: stack not writable", i)
		}
		// Shadow slots are usable and end in a guard.
		sb := l.ShadowBaseFor(i)
		if p := e.Mem.PermAt(sb); p != PermRW {
			t.Errorf("thread %d: shadow base not writable", i)
		}
		// Per-thread SSA frames are distinct pages.
		if i > 0 && l.SSABaseFor(i) == l.SSABaseFor(i-1) {
			t.Error("SSA frames alias")
		}
		if l.SSABaseFor(i)+PageSize > l.SSAEnd {
			t.Errorf("thread %d SSA frame outside region", i)
		}
	}
	// Slots are disjoint and ordered.
	for i := 1; i < 4; i++ {
		if l.StackLoFor(i) < l.StackHiFor(i-1) {
			t.Errorf("stack slots %d and %d overlap", i-1, i)
		}
	}
	// Single-threaded accessors degrade to the whole regions.
	e1, err := New(DefaultConfig(), []byte("st"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Layout.StackHiFor(0) != e1.Layout.StackHi || e1.Layout.ShadowBaseFor(0) != e1.Layout.ShadowBase {
		t.Error("single-thread accessors changed semantics")
	}
}

func TestSGXv2CodePermissions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SGXv2 = true
	e, err := New(cfg, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if p := e.Mem.PermAt(e.Layout.CodeBase); p != PermRW {
		t.Fatalf("SGXv2 code pages should start rw-, got %v", p)
	}
	if !e.Layout.SGXv2 {
		t.Error("layout flag lost")
	}
}

// TestNewLayoutMatchesNew: NewLayout resolves exactly the address map New
// launches with, for every kind of configuration, and allocates nothing.
func TestNewLayoutMatchesNew(t *testing.T) {
	threaded := DefaultConfig()
	threaded.Threads = 3
	v2 := DefaultConfig()
	v2.SGXv2 = true
	odd := DefaultConfig()
	odd.CodeCap, odd.HeapCap = PageSize+1, 3*PageSize-5
	for _, cfg := range []Config{DefaultConfig(), threaded, v2, odd} {
		e, err := New(cfg, []byte("layout"))
		if err != nil {
			t.Fatal(err)
		}
		if l := NewLayout(cfg); l != e.Layout {
			t.Errorf("NewLayout(%+v) = %+v, New laid out %+v", cfg, l, e.Layout)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = NewLayout(PaperConfig()) }); n != 0 {
		t.Errorf("NewLayout allocates %v times", n)
	}
}
