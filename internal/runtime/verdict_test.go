package runtime_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deflection/internal/enclave"
	"deflection/internal/obj"
	"deflection/internal/runtime"
)

// verdictMutants is the number of seeded text mutants per golden case.
const verdictMutants = 40

// textMutant returns objBytes with 1–3 text bytes changed, chosen by a
// generator seeded from the case and the mutant index: bit flips (which
// mostly keep an instruction's shape and reach the template and CFA
// passes) and random bytes (which mostly break decoding).
func textMutant(t *testing.T, c goldenCase, k int) []byte {
	t.Helper()
	o, err := obj.Unmarshal(c.obj)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%d", c.name, c.pols, k)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for n := 1 + k%3; n > 0; n-- {
		i := rng.Intn(len(o.Text))
		if rng.Intn(2) == 0 {
			o.Text[i] ^= 1 << rng.Intn(8)
		} else {
			o.Text[i] = byte(rng.Intn(256))
		}
	}
	return o.Marshal()
}

// TestVerdictGolden pins the verdict of verdictMutants seeded text mutants
// of every golden case: the full rejection string, or the digest of the
// accepted image. It makes rejections as byte-exact as TestVerifyImageGolden
// makes acceptances. Regenerate with -update only for a deliberate change
// of a verdict.
func TestVerdictGolden(t *testing.T) {
	golden := filepath.Join("testdata", "verdict_golden.txt")
	l := enclave.NewLayout(enclave.DefaultConfig())
	var got bytes.Buffer
	for _, c := range goldenCorpus(t) {
		for k := 0; k < verdictMutants; k++ {
			img, _, _, err := runtime.VerifyImage(textMutant(t, c, k), c.manifest(), l)
			var verdict string
			if err != nil {
				verdict = fmt.Sprintf("reject %q", err.Error())
			} else {
				verdict = "accept " + imageDigest(img)
			}
			fmt.Fprintf(&got, "%s\t%v\t%d\t%s\n", c.name, c.pols, k, verdict)
		}
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
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d verdicts, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	bad := 0
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("verdict drifted:\n got %s\nwant %s", gotLines[i], wantLines[i])
			if bad++; bad == 10 {
				t.Fatal("too many drifted verdicts")
			}
		}
	}
}
