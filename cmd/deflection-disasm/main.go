// Command deflection-disasm inspects a target binary: its header, symbol
// table, relocation entries, branch-target list ("the proof"), a full
// disassembly optionally annotated with the verifier's findings, and the
// recovered control-flow graph.
//
// Usage:
//
//	deflection-disasm -verify p1-p6 service.dfo
//	deflection-disasm -cfg dot service.dfo | dot -Tsvg > cfg.svg
//
// Exit status: 0 clean, 1 on decode errors or a verifier rejection, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/loader"
	"deflection/internal/obj"
	"deflection/internal/order"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/taint"
	"deflection/internal/verifier"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		verify = flag.String("verify", "", "also run the verifier with this policy set (p1|p1+p2|p1-p5|p1-p6|p1-p7|p1-p8|full)")
		cfg    = flag.String("cfg", "", "print the recovered control-flow graph instead of a listing (dot|text)")
		taintF = flag.Bool("taint", false, "annotate the -cfg output with the P7 pass: per-block register taint-in/out masks and findings (loads and verifies the object under p1-p7)")
		orderF = flag.Bool("order", false, "annotate the -cfg output with the P8 pass: per-block reachable protocol-state sets and findings (loads and verifies the object under p1-p8)")
		dump   = flag.Bool("d", true, "print disassembly")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: deflection-disasm [flags] service.dfo")
		flag.PrintDefaults()
		return 2
	}
	if *cfg != "" && *cfg != "dot" && *cfg != "text" {
		fmt.Fprintf(os.Stderr, "deflection-disasm: -cfg must be dot or text, got %q\n", *cfg)
		return 2
	}
	if (*taintF || *orderF) && *cfg == "" {
		fmt.Fprintln(os.Stderr, "deflection-disasm: -taint and -order require -cfg dot or -cfg text")
		return 2
	}
	if *taintF && *orderF {
		fmt.Fprintln(os.Stderr, "deflection-disasm: -taint and -order are mutually exclusive")
		return 2
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	o, err := obj.Unmarshal(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %v\n", err)
		return 1
	}

	if *taintF {
		return dumpTaintCFG(o, *cfg)
	}
	if *orderF {
		return dumpOrderCFG(o, *cfg)
	}
	if *cfg != "" {
		return dumpCFG(o, *cfg)
	}

	fmt.Printf("entry: %s   claimed policies: %s\n", o.Entry, policy.Set(o.PolicyMask))
	fmt.Printf("text: %d bytes   data: %d bytes   bss: %d bytes\n", len(o.Text), len(o.Data), o.BSSSize)
	fmt.Printf("symbols: %d   relocs: %d   branch targets: %d\n\n", len(o.Symbols), len(o.Relocs), len(o.BranchTargets))

	fmt.Println("branch-target list (the proof):")
	for _, bt := range o.BranchTargets {
		s, _ := o.Symbol(bt.Symbol)
		fmt.Printf("  %#06x  %s\n", s.Offset, bt.Symbol)
	}
	fmt.Println()

	rejected := false
	var annot map[int64]bool
	if *verify != "" {
		pols, perr := policy.ParseSet(*verify)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			return 2
		}
		ld, lerr := loader.Relocate(enclave.NewLayout(enclave.DefaultConfig()), o)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", lerr)
			return 1
		}
		text := ld.Text
		var offs []int64
		for _, t := range ld.BranchTargets {
			offs = append(offs, int64(t-ld.TextBase))
		}
		res, verr := verifier.Verify(text, verifier.Options{
			Required:            pols,
			EntryOffset:         int64(ld.Entry - ld.TextBase),
			BranchTargetOffsets: offs,
		})
		if verr != nil {
			fmt.Printf("verifier: REJECTED: %v\n\n", verr)
			rejected = true
		} else {
			fmt.Printf("verifier: ACCEPTED (%d instructions, %d store guards, %d cfi guards, %d AEX checks; cfg %d blocks/%d edges, %d anchors re-proved)\n\n",
				res.Stats.Instructions, res.Stats.StoreGuards, res.Stats.CFIGuards, res.Stats.AEXChecks,
				res.CFA.Blocks, res.CFA.Edges, res.CFA.Anchors)
			annot = make(map[int64]bool)
			for _, r := range res.AnnotRanges {
				for off := r.Lo; off < r.Hi; off++ {
					annot[off] = true
				}
			}
		}
	}

	badBytes := 0
	if *dump {
		badBytes = dumpListing(o, annot)
	}
	if rejected || badBytes > 0 {
		return 1
	}
	return 0
}

// dumpListing prints a structured (offset, mnemonic) listing of the whole
// text section. Undecodable bytes do not abort the listing: each is
// printed as a .byte line and decoding resynchronises at the next offset.
// Returns the number of undecodable bytes.
func dumpListing(o *obj.Object, annot map[int64]bool) int {
	labels := make(map[int64]string)
	for _, s := range o.Symbols {
		if s.Section == obj.SecText {
			labels[s.Offset] = s.Name
		}
	}
	bad := 0
	for off := int64(0); off < int64(len(o.Text)); {
		if name, ok := labels[off]; ok {
			fmt.Printf("\n%s:\n", name)
		}
		mark := "  "
		if annot[off] {
			mark = "@ " // annotation code
		}
		in, n, err := isa.Decode(o.Text[off:])
		if err != nil {
			fmt.Printf("%s%#06x  .byte %#02x ; undecodable: %v\n", mark, off, o.Text[off], err)
			bad++
			off++
			continue
		}
		fmt.Printf("%s%#06x  %s\n", mark, off, in.String())
		off += int64(n)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %d undecodable byte(s) in text\n", bad)
	}
	return bad
}

// dumpCFG recovers the control-flow graph the verifier would reason over
// and renders it as graphviz dot or a plain-text block listing.
func dumpCFG(o *obj.Object, format string) int {
	entry, ok := o.Symbol(o.Entry)
	if !ok {
		fmt.Fprintf(os.Stderr, "deflection-disasm: entry symbol %q not found\n", o.Entry)
		return 1
	}
	entries := []int64{entry.Offset}
	var targets []int64
	for _, bt := range o.BranchTargets {
		s, ok := o.Symbol(bt.Symbol)
		if !ok {
			fmt.Fprintf(os.Stderr, "deflection-disasm: branch target %q not found\n", bt.Symbol)
			return 1
		}
		targets = append(targets, s.Offset)
		entries = append(entries, s.Offset)
	}
	dis, err := disasm.Disassemble(o.Text, entries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %v\n", err)
		return 1
	}
	g := cfa.Build(dis, entry.Offset, targets)
	switch format {
	case "dot":
		renderTaintDot(g, nil, nil)
	case "text":
		renderText(g)
		if dead := g.DeadRanges(len(o.Text)); len(dead) > 0 {
			for _, r := range dead {
				fmt.Printf("dead [%#06x, %#06x): %d bytes unreachable\n", r.Lo, r.Hi, r.Hi-r.Lo)
			}
		}
	}
	return 0
}

// dumpTaintCFG relocates the object exactly as the runtime would, runs a
// full p1-p7 verification capturing the P7 taint report, and renders the
// CFG over the relocated text with per-block register taint-in/out masks
// and inline findings. The verdict goes to stderr so
// dot output on stdout stays valid graphviz.
func dumpTaintCFG(o *obj.Object, format string) int {
	ld, err := loader.Relocate(enclave.NewLayout(enclave.DefaultConfig()), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	text := ld.Text
	entryOff := int64(ld.Entry - ld.TextBase)
	var offs []int64
	for _, t := range ld.BranchTargets {
		offs = append(offs, int64(t-ld.TextBase))
	}
	var rep *taint.Report
	_, verr := verifier.Verify(text, verifier.Options{
		Required:            policy.SetP1P7,
		EntryOffset:         entryOff,
		BranchTargetOffsets: offs,
		Taint:               runtime.TaintConfig(ld),
		TaintObserver:       func(r *taint.Report) { rep = r },
	})
	switch {
	case verr != nil:
		fmt.Fprintf(os.Stderr, "verifier: REJECTED: %v\n", verr)
	case rep != nil && rep.Trivial:
		fmt.Fprintln(os.Stderr, "verifier: ACCEPTED (no secret buffers tagged; P7 holds trivially)")
	default:
		fmt.Fprintln(os.Stderr, "verifier: ACCEPTED")
	}
	if rep == nil {
		fmt.Fprintln(os.Stderr, "deflection-disasm: taint annotations unavailable (an earlier pass rejected the binary before P7 ran)")
	}

	dis, err := disasm.Disassemble(text, append([]int64{entryOff}, offs...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %v\n", err)
		return 1
	}
	g := cfa.Build(dis, entryOff, offs)
	findings := make(map[int64]taint.Finding)
	if rep != nil {
		for _, f := range rep.Findings {
			findings[f.Off] = f
		}
	}
	switch format {
	case "dot":
		renderTaintDot(g, rep, findings)
	case "text":
		renderTaintText(g, rep, findings)
	}
	if verr != nil {
		return 1
	}
	return 0
}

// dumpOrderCFG relocates the object exactly as the runtime would, runs a
// full p1-p8 verification capturing the P8 orderliness report, and renders
// the CFG over the relocated text with per-block reachable protocol-state
// sets and inline findings. The verdict goes to
// stderr so dot output on stdout stays valid graphviz.
func dumpOrderCFG(o *obj.Object, format string) int {
	ld, err := loader.Relocate(enclave.NewLayout(enclave.DefaultConfig()), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	text := ld.Text
	entryOff := int64(ld.Entry - ld.TextBase)
	var offs []int64
	for _, t := range ld.BranchTargets {
		offs = append(offs, int64(t-ld.TextBase))
	}
	proto := runtime.OrderProtocol(ld)
	var rep *order.Report
	_, verr := verifier.Verify(text, verifier.Options{
		Required:            policy.SetP1P8,
		EntryOffset:         entryOff,
		BranchTargetOffsets: offs,
		Taint:               runtime.TaintConfig(ld),
		Order:               proto,
		OrderObserver:       func(r *order.Report) { rep = r },
	})
	switch {
	case verr != nil:
		fmt.Fprintf(os.Stderr, "verifier: REJECTED: %v\n", verr)
	case rep != nil && rep.Trivial:
		fmt.Fprintln(os.Stderr, "verifier: ACCEPTED (no interface protocol declared; P8 holds trivially)")
	default:
		fmt.Fprintln(os.Stderr, "verifier: ACCEPTED")
	}
	if rep == nil {
		fmt.Fprintln(os.Stderr, "deflection-disasm: order annotations unavailable (an earlier pass rejected the binary before P8 ran)")
	}

	dis, err := disasm.Disassemble(text, append([]int64{entryOff}, offs...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %v\n", err)
		return 1
	}
	g := cfa.Build(dis, entryOff, offs)
	findings := make(map[int64]order.Finding)
	if rep != nil {
		for _, f := range rep.Findings {
			findings[f.Off] = f
		}
	}
	switch format {
	case "dot":
		renderOrderDot(g, proto, rep, findings)
	case "text":
		renderOrderText(g, proto, rep, findings)
	}
	if verr != nil {
		return 1
	}
	return 0
}

// renderText prints the graph as a block listing with each block's
// predecessors and immediate dominator.
func renderText(g *cfa.Graph) {
	fmt.Printf("cfg: %d blocks, %d edges, entry %#x, %d listed targets\n",
		len(g.Blocks)-1, g.Edges, g.Entry, len(g.Targets))
	for _, b := range g.Blocks[1:] {
		fmt.Printf("block %d [%#06x, %#06x) succs=%v preds=%v idom=%d\n",
			b.ID, b.Start, b.End, b.Succs, b.Preds, g.Idom(b.ID))
		for _, in := range b.Insts {
			fmt.Printf("  %#06x  %s\n", in.Off, in.Inst.String())
		}
	}
}

// printDotEdges prints every CFG edge and closes the dot graph.
func printDotEdges(g *cfa.Graph) {
	name := func(id int) string {
		if id == cfa.Root {
			return "root"
		}
		return fmt.Sprintf("b%d", id)
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			fmt.Printf("  %s -> %s;\n", name(b.ID), name(s))
		}
	}
	fmt.Println("}")
}

// stateMask renders a protocol-state bitmask with the protocol's state
// names; without a protocol there are no states to name.
func stateMask(p *order.Protocol, m uint64) string {
	if p == nil {
		return "-"
	}
	return p.StateNames(m)
}

func renderOrderText(g *cfa.Graph, p *order.Protocol, rep *order.Report, findings map[int64]order.Finding) {
	fmt.Printf("cfg: %d blocks, %d edges, entry %#x, %d listed targets\n",
		len(g.Blocks)-1, g.Edges, g.Entry, len(g.Targets))
	if p != nil {
		fmt.Printf("protocol: %d states, start %q\n", len(p.States), p.States[p.Start].Name)
	}
	for _, b := range g.Blocks[1:] {
		fmt.Printf("block %d [%#06x, %#06x) succs=%v", b.ID, b.Start, b.End, b.Succs)
		if rep != nil && !rep.Trivial {
			if bs, ok := rep.Blocks[b.ID]; ok {
				fmt.Printf(" states-in={%s} states-out={%s}", stateMask(p, bs.In), stateMask(p, bs.Out))
			} else {
				fmt.Print(" states: unreached")
			}
		}
		fmt.Println()
		for _, in := range b.Insts {
			fmt.Printf("  %#06x  %s", in.Off, in.Inst.String())
			if f, ok := findings[in.Off]; ok {
				fmt.Printf("   ; ORDER %s: %s", f.Kind, f.Msg)
			}
			fmt.Println()
		}
	}
}

func renderOrderDot(g *cfa.Graph, p *order.Protocol, rep *order.Report, findings map[int64]order.Finding) {
	fmt.Println("digraph cfg {\n  node [shape=box fontname=\"monospace\"];")
	fmt.Println("  root [label=\"root\" shape=ellipse];")
	for _, b := range g.Blocks[1:] {
		var lbl strings.Builder
		fmt.Fprintf(&lbl, "[%#06x, %#06x)\\l", b.Start, b.End)
		violated := false
		if rep != nil && !rep.Trivial {
			if bs, ok := rep.Blocks[b.ID]; ok {
				fmt.Fprintf(&lbl, "states in={%s} out={%s}\\l", stateMask(p, bs.In), stateMask(p, bs.Out))
			}
		}
		for _, in := range b.Insts {
			fmt.Fprintf(&lbl, "%#06x  %s\\l", in.Off, in.Inst.String())
			if f, ok := findings[in.Off]; ok {
				fmt.Fprintf(&lbl, "  !! ORDER %s\\l", f.Kind)
				violated = true
			}
		}
		attr := ""
		if violated {
			attr = " color=red"
		}
		fmt.Printf("  b%d [label=\"%s\"%s];\n", b.ID, lbl.String(), attr)
	}
	printDotEdges(g)
}

// regMask renders a register-taint bitmask as a comma list ("-" = clean).
func regMask(m uint16) string {
	if m == 0 {
		return "-"
	}
	var parts []string
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if m&(1<<r) != 0 {
			parts = append(parts, r.String())
		}
	}
	return strings.Join(parts, ",")
}

func renderTaintText(g *cfa.Graph, rep *taint.Report, findings map[int64]taint.Finding) {
	fmt.Printf("cfg: %d blocks, %d edges, entry %#x, %d listed targets\n",
		len(g.Blocks)-1, g.Edges, g.Entry, len(g.Targets))
	for _, b := range g.Blocks[1:] {
		fmt.Printf("block %d [%#06x, %#06x) succs=%v", b.ID, b.Start, b.End, b.Succs)
		if rep != nil {
			if bt, ok := rep.Blocks[b.ID]; ok {
				fmt.Printf(" taint-in=%s taint-out=%s", regMask(bt.In), regMask(bt.Out))
			} else {
				fmt.Print(" taint: unreached")
			}
		}
		fmt.Println()
		for _, in := range b.Insts {
			fmt.Printf("  %#06x  %s", in.Off, in.Inst.String())
			if f, ok := findings[in.Off]; ok {
				fmt.Printf("   ; TAINT %s: %s", f.Kind, f.Msg)
			}
			fmt.Println()
		}
	}
}

// renderTaintDot prints the graph in Graphviz dot syntax, annotated with
// the taint report when there is one; without a report it is the plain
// CFG.
func renderTaintDot(g *cfa.Graph, rep *taint.Report, findings map[int64]taint.Finding) {
	fmt.Println("digraph cfg {\n  node [shape=box fontname=\"monospace\"];")
	fmt.Println("  root [label=\"root\" shape=ellipse];")
	for _, b := range g.Blocks[1:] {
		var lbl strings.Builder
		fmt.Fprintf(&lbl, "[%#06x, %#06x)\\l", b.Start, b.End)
		tainted := false
		if rep != nil {
			if bt, ok := rep.Blocks[b.ID]; ok {
				fmt.Fprintf(&lbl, "taint in=%s out=%s\\l", regMask(bt.In), regMask(bt.Out))
				tainted = bt.In != 0 || bt.Out != 0
			}
		}
		for _, in := range b.Insts {
			fmt.Fprintf(&lbl, "%#06x  %s\\l", in.Off, in.Inst.String())
			if f, ok := findings[in.Off]; ok {
				fmt.Fprintf(&lbl, "  !! TAINT %s\\l", f.Kind)
			}
		}
		attr := ""
		if tainted {
			attr = " color=red"
		}
		fmt.Printf("  b%d [label=\"%s\"%s];\n", b.ID, lbl.String(), attr)
	}
	printDotEdges(g)
}
