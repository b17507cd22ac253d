package runtime_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// goldenProtocol admits every interface event the DC builtins emit, so a
// program carrying it stays accepted while P8 runs its full fixpoint.
const goldenProtocol = `
protocol {
    state run attested;
    state end attested;
    run: send -> run;
    run: recv -> run;
    run: print -> run;
    run: tid -> run;
    run: hlt -> end;
}
`

// goldenCase is one compiled binary of the image corpus.
type goldenCase struct {
	name string
	pols policy.Set
	obj  []byte
}

func (c goldenCase) manifest() runtime.Manifest {
	m := runtime.DefaultManifest()
	m.Policies = c.pols
	return m
}

var (
	goldenOnce  sync.Once
	goldenCases []goldenCase
	goldenErr   error
)

// goldenCorpus compiles every application and nBench kernel under P1–P6
// and P1–P8, each plain and behind goldenProtocol (compiled once per test
// binary; the fuzz seeds reuse it).
func goldenCorpus(t testing.TB) []goldenCase {
	t.Helper()
	goldenOnce.Do(func() {
		srcs := [][2]string{
			{"nw", apps.NWSource},
			{"seqgen", apps.SeqGenSource},
			{"credit", apps.CreditSource},
			{"https", apps.HTTPSHandlerSource},
		}
		for _, k := range nbench.Kernels() {
			srcs = append(srcs, [2]string{k.Name, k.Source})
		}
		for _, pols := range []policy.Set{policy.SetP1P6, policy.SetP1P8} {
			for _, proto := range []bool{false, true} {
				for _, s := range srcs {
					name, src := s[0], s[1]
					if proto {
						name, src = name+"-proto", goldenProtocol+src
					}
					o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
					if err != nil {
						goldenErr = fmt.Errorf("compile %s under %v: %w", name, pols, err)
						return
					}
					goldenCases = append(goldenCases, goldenCase{name, pols, o.Marshal()})
				}
			}
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenCases
}

// imageDigest hashes everything an Image carries except wall-clock
// durations: the addresses, the text, data and branch-table bytes, the
// branch targets, annotation ranges, verifier stats, rewrite counts, the
// audit trail and the layout. The data segment is hashed whole, .bss
// included, as it was when images stored it.
func imageDigest(img *runtime.Image) string {
	h := sha256.New()
	blob := func(b []byte) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
		h.Write(b)
	}
	fmt.Fprintf(h, "%x|%#x|%#x|%#x|%#x|%#x|", img.BinaryHash, img.Entry,
		img.TextBase, img.TextEnd, img.DataBase, img.HeapFree)
	blob(img.Text)
	h.Write(binary.LittleEndian.AppendUint64(nil, img.HeapFree-img.DataBase))
	img.WriteDataSegment(h)
	blob(img.BranchTable)
	fmt.Fprintf(h, "%v|%v|%+v|%d/%d/%d|", img.BranchTargets, img.AnnotRanges, img.Stats,
		img.Rewrites.StoreBounds, img.Rewrites.StackBounds, img.Rewrites.SSASites)
	for _, a := range img.Audit {
		a.Duration = 0
		fmt.Fprintf(h, "%+v|", a)
	}
	fmt.Fprintf(h, "%+v", img.Layout)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestVerifyImageGolden pins the images VerifyImage builds for the whole
// corpus to digests recorded from the enclave-backed pipeline that preceded
// it (load into enclave memory, verify, rewrite in place, snapshot):
// staging the binary outside the enclave must not change a single byte.
// Regenerate with -update only for a deliberate change of the image format.
func TestVerifyImageGolden(t *testing.T) {
	golden := filepath.Join("testdata", "image_golden.txt")
	l := enclave.NewLayout(enclave.DefaultConfig())
	var got bytes.Buffer
	for _, c := range goldenCorpus(t) {
		img, _, _, err := runtime.VerifyImage(c.obj, c.manifest(), l)
		if err != nil {
			t.Fatalf("%s under %v: %v", c.name, c.pols, err)
		}
		fmt.Fprintf(&got, "%s\t%v\t%s\n", c.name, c.pols, imageDigest(img))
	}
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	// Lines are "name<TAB>policies<TAB>digest"; the digest is keyed by the
	// rest.
	split := func(line string) (string, string) {
		i := strings.LastIndexByte(line, '\t')
		return line[:max(i, 0)], line[i+1:]
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		k, v := split(sc.Text())
		wantLines[k] = v
	}
	n := 0
	sc = bufio.NewScanner(&got)
	for sc.Scan() {
		k, v := split(sc.Text())
		n++
		if w, ok := wantLines[k]; !ok {
			t.Errorf("%s: no golden digest", k)
		} else if w != v {
			t.Errorf("%s: image digest drifted:\n got %s\nwant %s", k, v, w)
		}
	}
	if n != len(wantLines) {
		t.Errorf("corpus has %d images, golden file %d", n, len(wantLines))
	}
}
