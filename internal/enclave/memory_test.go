package enclave

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// flatMemory is the reference model of Memory: one flat byte slice behind
// the same permission checks. FuzzMemory requires the demand-paged Memory
// to be indistinguishable from it.
type flatMemory struct {
	base  uint64
	data  []byte
	perms []Perm
	watch func(addr uint64, size int)
}

func (m *flatMemory) end() uint64 { return m.base + uint64(len(m.data)) }

func (m *flatMemory) SetPerm(lo, hi uint64, p Perm) error {
	if lo < m.base || hi > m.end() || lo > hi {
		return fmt.Errorf("range [%#x,%#x) outside memory", lo, hi)
	}
	for pg := (lo - m.base) / PageSize; pg < (hi-m.base+PageSize-1)/PageSize; pg++ {
		m.perms[pg] = p
	}
	return nil
}

func (m *flatMemory) permAt(addr uint64) Perm {
	if addr < m.base || addr >= m.end() {
		return 0
	}
	return m.perms[(addr-m.base)/PageSize]
}

func (m *flatMemory) check(addr uint64, size int, want Perm, acc Access) *Fault {
	if size <= 0 || addr < m.base || addr+uint64(size) > m.end() || addr+uint64(size) < addr {
		return &Fault{Addr: addr, Access: acc, Size: size}
	}
	for pg := (addr - m.base) / PageSize; pg <= (addr+uint64(size)-1-m.base)/PageSize; pg++ {
		if m.perms[pg]&want != want {
			return &Fault{Addr: addr, Access: acc, Size: size}
		}
	}
	return nil
}

func (m *flatMemory) Read(addr uint64, size int) ([]byte, *Fault) {
	if f := m.check(addr, size, PermR, AccessRead); f != nil {
		return nil, f
	}
	return append([]byte(nil), m.data[addr-m.base:addr-m.base+uint64(size)]...), nil
}

func (m *flatMemory) Write(addr uint64, b []byte) *Fault {
	if f := m.check(addr, len(b), PermW, AccessWrite); f != nil {
		return f
	}
	copy(m.data[addr-m.base:], b)
	m.watch(addr, len(b))
	return nil
}

func (m *flatMemory) FetchWindow(addr uint64, size int) ([]byte, *Fault) {
	if m.permAt(addr)&PermX == 0 {
		return nil, &Fault{Addr: addr, Access: AccessExec, Size: size}
	}
	end := min(addr+uint64(size), m.end())
	for pg := addr/PageSize + 1; pg*PageSize < end; pg++ {
		if m.permAt(pg*PageSize)&PermX == 0 {
			end = pg * PageSize
			break
		}
	}
	return m.data[addr-m.base : end-m.base], nil
}

// fuzzConfig is a small multi-threaded enclave: every region, guard page and
// per-thread guard is a few pages away from the next, so byte-encoded
// addresses reach all of them.
var fuzzConfig = Config{
	CodeCap: 3 * PageSize, BrTableCap: PageSize, ShadowCap: 4 * PageSize,
	StackCap: 4 * PageSize, HeapCap: 3 * PageSize, UntrustedCap: 2 * PageSize,
	Threads: 2,
}

// watchCall is one write-watch notification.
type watchCall struct {
	addr uint64
	size int
}

// FuzzMemory runs byte-encoded sequences of SetPerm, Read, Write, Read8,
// Write8, Read64, Write64 and FetchWindow against the demand-paged Memory
// and the flat reference model, and requires identical values, faults and
// write-watch calls, and identical contents at the end. Addresses are
// biased towards page edges, which include every guard page and region end
// of fuzzConfig.
func FuzzMemory(f *testing.F) {
	// Page n of fuzzConfig's layout: code 0-2, branch table 3, guard 4,
	// shadow 5-8 (per-thread guards 6 and 8), guard 9, SSA 10-11, guard 12,
	// heap 13-15, guard 16, stack 17-20 (per-thread guards 17 and 19),
	// guard 21, untrusted 22-23. An address is a page byte n+1 and an offset
	// byte; offsets 0x00-0x1f lie within 16 bytes of the page's start.
	f.Add([]byte{})
	// Write64 and Read64 across the first heap page edge.
	f.Add([]byte{6, 15, 0x0c, 1, 2, 3, 4, 5, 6, 7, 8, 5, 15, 0x0c})
	// Write and FetchWindow across the first code page edge.
	f.Add(append(append([]byte{2, 2, 0x0e, 20}, bytes.Repeat([]byte{0x42}, 20)...), 7, 2, 0x0e, 16))
	// Make the first heap page read-only, then straddle a word into it.
	f.Add([]byte{0, 14, 0x10, 15, 0x10, 1, 6, 15, 0x0c, 1, 2, 3, 4, 5, 6, 7, 8, 5, 15, 0x0c})
	// FetchWindow clamped at the code end, a guard-page read, a wrapping read.
	f.Add([]byte{7, 4, 0x0d, 16, 5, 5, 0x10, 1, 0xff, 0x00, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e, err := New(fuzzConfig, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := e.Mem
		ref := &flatMemory{base: m.base, data: make([]byte, m.End()-m.base), perms: append([]Perm(nil), m.perms...)}
		var got, want []watchCall
		m.AddWriteWatch(func(addr uint64, size int) { got = append(got, watchCall{addr, size}) })
		ref.watch = func(addr uint64, size int) { want = append(want, watchCall{addr, size}) }

		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		npages := len(m.pages)
		addr := func() uint64 {
			pg, off := next(), next()
			if pg == 0xff {
				return ^uint64(0) - uint64(off) // wraps when a size is added
			}
			a := m.base + uint64(int(pg)%(npages+3)-1)*PageSize
			if off&0x80 == 0 {
				return a + uint64(int(off&0x1f)-16) // within 16 bytes of a page edge
			}
			return a + uint64(off&0x7f)*32
		}
		bytesOf := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = next()
			}
			return b
		}
		same := func(op string, g, w any) {
			t.Helper()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: paged %v, flat %v", op, g, w)
			}
		}
		for len(ops) > 0 {
			switch op := next() % 8; op {
			case 0:
				lo, hi, p := addr(), addr(), Perm(next()%8)
				same("SetPerm", m.SetPerm(lo, hi, p) == nil, ref.SetPerm(lo, hi, p) == nil)
			case 1:
				a, n := addr(), int(next()%40)
				gb, gf := m.Read(a, n)
				wb, wf := ref.Read(a, n)
				same("Read", []any{gb, gf}, []any{wb, wf})
			case 2:
				a, b := addr(), bytesOf(int(next()%40))
				same("Write", m.Write(a, b), ref.Write(a, b))
			case 3:
				a := addr()
				gv, gf := m.Read8(a)
				wb, wf := ref.Read(a, 1)
				var wv uint8
				if wf == nil {
					wv = wb[0]
				}
				same("Read8", []any{gv, gf}, []any{wv, wf})
			case 4:
				a, v := addr(), next()
				same("Write8", m.Write8(a, v), ref.Write(a, []byte{v}))
			case 5:
				a := addr()
				gv, gf := m.Read64(a)
				wb, wf := ref.Read(a, 8)
				var wv uint64
				if wf == nil {
					wv = binary.LittleEndian.Uint64(wb)
				}
				same("Read64", []any{gv, gf}, []any{wv, wf})
			case 6:
				a, v := addr(), bytesOf(8)
				same("Write64", m.Write64(a, binary.LittleEndian.Uint64(v)), ref.Write(a, v))
			case 7:
				a, n := addr(), int(next()%24)
				gw, gf := m.FetchWindow(a, n)
				ww, wf := ref.FetchWindow(a, n)
				if gf != nil || wf != nil {
					same("FetchWindow", gf, wf)
				} else if !bytes.Equal(gw, ww) {
					t.Fatalf("FetchWindow(%#x, %d): paged %x, flat %x", a, n, gw, ww)
				}
			}
			same("write watches", got, want)
			got, want = got[:0], want[:0]
		}
		all := make([]byte, len(ref.data))
		m.load(all, 0)
		if !bytes.Equal(all, ref.data) {
			t.Fatal("contents differ from the flat model")
		}
		if zeroPage != [PageSize]byte{} {
			t.Fatal("the shared zero page was written")
		}
	})
}

func TestWordStraddlingPageEdge(t *testing.T) {
	e := newTestEnclave(t)
	edge := e.Layout.HeapBase + PageSize
	for _, addr := range []uint64{edge - 7, edge - 4, edge - 1} {
		if f := e.Mem.Write64(addr, 0x0807060504030201); f != nil {
			t.Fatal(f)
		}
		v, f := e.Mem.Read64(addr)
		if f != nil || v != 0x0807060504030201 {
			t.Fatalf("Read64(%#x) = %#x, %v", addr, v, f)
		}
		for i := uint64(0); i < 8; i++ {
			if b, _ := e.Mem.Read8(addr + i); b != byte(i+1) {
				t.Fatalf("byte %d of the word at %#x = %d", i, addr, b)
			}
		}
	}
	// A word whose second half lies in the guard page after the heap faults
	// whole and writes nothing.
	if f := e.Mem.Write64(e.Layout.HeapEnd-4, ^uint64(0)); f == nil {
		t.Fatal("word straddling into the guard page should fault")
	}
	if v, _ := e.Mem.Read(e.Layout.HeapEnd-4, 4); !bytes.Equal(v, make([]byte, 4)) {
		t.Fatalf("faulting write left %x behind", v)
	}
}

func TestFetchWindowAcrossExecutablePages(t *testing.T) {
	e := newTestEnclave(t)
	edge := e.Layout.CodeBase + PageSize
	code := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if f := e.Mem.Write(edge-5, code); f != nil {
		t.Fatal(f)
	}
	win, f := e.Mem.FetchWindow(edge-5, len(code))
	if f != nil || !bytes.Equal(win, code) {
		t.Fatalf("window across X->X pages = %v, %v; want %v", win, f, code)
	}
	// X -> non-X (branch table, read-only) is still clamped at the edge.
	if f := e.Mem.Write(e.Layout.CodeEnd-3, []byte{7, 8, 9}); f != nil {
		t.Fatal(f)
	}
	win, f = e.Mem.FetchWindow(e.Layout.CodeEnd-3, 16)
	if f != nil || !bytes.Equal(win, []byte{7, 8, 9}) {
		t.Fatalf("window across X->R pages = %v, %v; want clamped to 3 bytes", win, f)
	}
}

func TestUnwrittenPagesReadZero(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	for _, addr := range []uint64{l.CodeBase, l.BrTableBase, l.ShadowEnd - 8, l.SSABase, l.HeapBase + PageSize - 4, l.StackHi - 8, l.UntrustedEnd - 8} {
		if v, f := e.Mem.Read64(addr); f != nil || v != 0 {
			t.Errorf("Read64(%#x) = %#x, %v; want 0", addr, v, f)
		}
	}
	// A window over a page never written is a zero copy: writing into it
	// changes neither memory nor the shared zero page.
	win, f := e.Mem.FetchWindow(l.CodeBase+2*PageSize, 16)
	if f != nil || !bytes.Equal(win, make([]byte, 16)) {
		t.Fatalf("window over an unwritten page = %v, %v", win, f)
	}
	win[0] = 0xcc
	if b, _ := e.Mem.Read8(l.CodeBase + 2*PageSize); b != 0 || zeroPage[0] != 0 {
		t.Fatal("writing a fetch window reached memory")
	}
}

func TestFreshEnclaveSeesNoResidue(t *testing.T) {
	first := newTestEnclave(t)
	l := first.Layout
	junk := bytes.Repeat([]byte{0xa5}, 3*PageSize)
	for _, lo := range []uint64{l.CodeBase, l.HeapBase, l.StackHi - uint64(len(junk)), l.UntrustedBase} {
		if f := first.Mem.Write(lo, junk); f != nil {
			t.Fatal(f)
		}
	}
	if f := first.Mem.Write64(l.SSABase, ^uint64(0)); f != nil {
		t.Fatal(f)
	}
	second := newTestEnclave(t)
	all := make([]byte, second.Mem.End()-second.Mem.Base())
	second.Mem.load(all, 0)
	for i, b := range all {
		if b != 0 {
			t.Fatalf("fresh enclave reads residue at %#x", second.Mem.Base()+uint64(i))
		}
	}
	if zeroPage != [PageSize]byte{} {
		t.Fatal("the shared zero page was written")
	}
}
