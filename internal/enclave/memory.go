// Package enclave models the SGX memory and lifecycle semantics the
// DEFLECTION design depends on: an ELRANGE of protected memory with
// page-granular R/W/X permissions (fixed after launch, as under SGXv1),
// state-save areas written by asynchronous enclave exits, guard pages, and a
// measured launch that anchors remote attestation. Memory is demand paged
// and zero on first touch, so launching an enclave costs its page table and
// the pages it writes rather than its full size.
//
// Untrusted memory outside ELRANGE is part of the same address space
// and is freely readable and writable — writing enclave secrets there is
// exactly the leak channel policies P1-P5 exist to close, so the model must
// allow such writes at the architectural level and rely on verified
// annotations to prevent them.
package enclave

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the granularity of memory permissions.
const PageSize = 4096

// Perm is a page permission bitmask.
type Perm uint8

// Page permissions.
const (
	PermR Perm = 1 << iota
	PermW
	PermX

	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// String renders the permission as "rwx" flags.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access is the kind of memory access that faulted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessExec
)

// String names the access kind.
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "access"
	}
}

// Fault describes a failed memory access.
type Fault struct {
	Addr   uint64
	Access Access
	Size   int
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("enclave: %s fault at %#x (size %d)", f.Access, f.Addr, f.Size)
}

// Memory is a page-permissioned address space starting at Base. It is
// demand paged: a page's frame is allocated on the first write to it, and a
// page never written reads as zero through one shared, read-only zero page,
// so a fresh Memory costs its page table, not its size. Memory is not safe
// for concurrent use. The zero value is not usable; construct with
// NewMemory.
type Memory struct {
	base  uint64
	pages []*[PageSize]byte // nil until the page is first written
	perms []Perm

	// writeWatches are invoked after every successful write with the
	// address range written. Each CPU bound to this memory registers one
	// to invalidate its decoded instruction cache when code pages change
	// (self-modifying code).
	writeWatches []func(addr uint64, size int)
}

// zeroPage backs every page that has never been written. It is only ever
// read: writes allocate a private frame, and FetchWindow copies rather than
// alias it.
var zeroPage [PageSize]byte

// NewMemory creates size bytes of unmapped memory based at base. base and
// size must be page aligned.
func NewMemory(base, size uint64) (*Memory, error) {
	if base%PageSize != 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("enclave: base %#x / size %#x not page aligned", base, size)
	}
	if size == 0 {
		return nil, fmt.Errorf("enclave: zero-size memory")
	}
	return &Memory{
		base:  base,
		pages: make([]*[PageSize]byte, size/PageSize),
		perms: make([]Perm, size/PageSize),
	}, nil
}

// Base returns the lowest mapped address.
func (m *Memory) Base() uint64 { return m.base }

// End returns one past the highest mapped address.
func (m *Memory) End() uint64 { return m.base + uint64(len(m.pages))*PageSize }

// AddWriteWatch installs a callback observing successful writes.
func (m *Memory) AddWriteWatch(fn func(addr uint64, size int)) {
	m.writeWatches = append(m.writeWatches, fn)
}

func (m *Memory) notifyWrite(addr uint64, size int) {
	for _, fn := range m.writeWatches {
		fn(addr, size)
	}
}

// SetPerm sets the permission of all pages overlapping [lo, hi).
func (m *Memory) SetPerm(lo, hi uint64, p Perm) error {
	if lo < m.base || hi > m.End() || lo > hi {
		return fmt.Errorf("enclave: SetPerm range [%#x,%#x) outside memory", lo, hi)
	}
	for pg := (lo - m.base) / PageSize; pg < (hi-m.base+PageSize-1)/PageSize; pg++ {
		m.perms[pg] = p
	}
	return nil
}

// PermAt returns the permission of the page containing addr.
func (m *Memory) PermAt(addr uint64) Perm {
	if addr < m.base || addr >= m.End() {
		return 0
	}
	return m.perms[(addr-m.base)/PageSize]
}

func (m *Memory) check(addr uint64, size int, want Perm, acc Access) *Fault {
	if size <= 0 || addr < m.base || addr+uint64(size) > m.End() || addr+uint64(size) < addr {
		return &Fault{Addr: addr, Access: acc, Size: size}
	}
	first := (addr - m.base) / PageSize
	last := (addr + uint64(size) - 1 - m.base) / PageSize
	for pg := first; pg <= last; pg++ {
		if m.perms[pg]&want != want {
			return &Fault{Addr: addr, Access: acc, Size: size}
		}
	}
	return nil
}

// page returns page pg for reading; a page never written is the zero page.
func (m *Memory) page(pg uint64) *[PageSize]byte {
	if p := m.pages[pg]; p != nil {
		return p
	}
	return &zeroPage
}

// frame returns page pg for writing, allocating its frame on first use.
func (m *Memory) frame(pg uint64) *[PageSize]byte {
	p := m.pages[pg]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[pg] = p
	}
	return p
}

// load copies memory at offset off from Base into b, page by page.
func (m *Memory) load(b []byte, off uint64) {
	for len(b) > 0 {
		n := copy(b, m.page(off / PageSize)[off%PageSize:])
		b, off = b[n:], off+uint64(n)
	}
}

// store copies b into memory at offset off from Base, page by page.
func (m *Memory) store(off uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.frame(off / PageSize)[off%PageSize:], b)
		b, off = b[n:], off+uint64(n)
	}
}

// Read copies size bytes at addr into a fresh slice.
func (m *Memory) Read(addr uint64, size int) ([]byte, *Fault) {
	if f := m.check(addr, size, PermR, AccessRead); f != nil {
		return nil, f
	}
	out := make([]byte, size)
	m.load(out, addr-m.base)
	return out, nil
}

// Write copies b into memory at addr.
func (m *Memory) Write(addr uint64, b []byte) *Fault {
	if f := m.check(addr, len(b), PermW, AccessWrite); f != nil {
		return f
	}
	m.store(addr-m.base, b)
	m.notifyWrite(addr, len(b))
	return nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint64) (uint8, *Fault) {
	if f := m.check(addr, 1, PermR, AccessRead); f != nil {
		return 0, f
	}
	return m.page((addr - m.base) / PageSize)[addr%PageSize], nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v uint8) *Fault {
	if f := m.check(addr, 1, PermW, AccessWrite); f != nil {
		return f
	}
	m.frame((addr - m.base) / PageSize)[addr%PageSize] = v
	m.notifyWrite(addr, 1)
	return nil
}

// Read64 loads a little-endian 64-bit word. A word within one page takes
// one page lookup; one straddling two pages is assembled byte-wise.
func (m *Memory) Read64(addr uint64) (uint64, *Fault) {
	if f := m.check(addr, 8, PermR, AccessRead); f != nil {
		return 0, f
	}
	if in := addr % PageSize; in <= PageSize-8 {
		return binary.LittleEndian.Uint64(m.page((addr - m.base) / PageSize)[in:]), nil
	}
	var b [8]byte
	m.load(b[:], addr-m.base)
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 stores a little-endian 64-bit word, like Read64 with one page
// lookup unless the word straddles two pages.
func (m *Memory) Write64(addr uint64, v uint64) *Fault {
	if f := m.check(addr, 8, PermW, AccessWrite); f != nil {
		return f
	}
	if in := addr % PageSize; in <= PageSize-8 {
		binary.LittleEndian.PutUint64(m.frame((addr - m.base) / PageSize)[in:], v)
	} else {
		m.store(addr-m.base, binary.LittleEndian.AppendUint64(nil, v))
	}
	m.notifyWrite(addr, 8)
	return nil
}

// FetchWindow returns up to size bytes of executable memory starting at
// addr, for instruction decoding, clamped at the first non-executable page.
// A window within one written page aliases memory and must not be written;
// one that crosses into the next page, or lies in a page never written, is
// a copy, so an instruction spanning two pages decodes whole and the zero
// page is never handed out.
func (m *Memory) FetchWindow(addr uint64, size int) ([]byte, *Fault) {
	if m.PermAt(addr)&PermX == 0 { // also outside memory
		return nil, &Fault{Addr: addr, Access: AccessExec, Size: size}
	}
	end := min(addr+uint64(size), m.End())
	// Clamp the window at the first non-executable page so decoding cannot
	// read across an X boundary.
	for pg := addr/PageSize + 1; pg*PageSize < end; pg++ {
		if m.PermAt(pg*PageSize)&PermX == 0 {
			end = pg * PageSize
			break
		}
	}
	off, n := addr-m.base, end-addr
	if p, lo := m.pages[off/PageSize], off%PageSize; p != nil && lo+n <= PageSize {
		return p[lo : lo+n : lo+n], nil
	}
	win := make([]byte, n)
	m.load(win, off)
	return win, nil
}
