package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"deflection/attest"
	"deflection/internal/enclave"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
	"deflection/internal/vplane"
)

// testImage builds a small but fully populated image so the JSON round
// trip exercises every digest-covered field.
func testImage() *runtime.Image {
	img := &runtime.Image{
		Entry:         0x1000,
		TextBase:      0x1000,
		TextEnd:       0x1040,
		DataBase:      0x2000,
		HeapFree:      0x2100,
		Text:          []byte{0x90, 0x90, 0xc3},
		Data:          []byte{1, 2, 3, 4},
		BranchTable:   []byte{5, 6, 7, 8},
		BranchTargets: []uint64{0x1000, 0x1010},
		AnnotRanges:   []verifier.Range{{Lo: 0, Hi: 3}},
		Stats:         verifier.Stats{StoreGuards: 2, Instructions: 3},
		Layout:        enclave.Layout{ELRBase: 0x1000, ELREnd: 0x100000, HeapBase: 0x2000, HeapEnd: 0x10000, Threads: 1},
	}
	img.BinaryHash[0] = 0x42
	return img
}

// signedCert issues a platform-signed certificate over img.
func signedCert(t *testing.T, p *attest.Platform, img *runtime.Image) *attest.VerdictCert {
	t.Helper()
	digest, err := vplane.ImageDigest(img)
	if err != nil {
		t.Fatal(err)
	}
	cert := &attest.VerdictCert{
		Measurement: [32]byte{0xAA},
		Key:         [32]byte{0x01, 0x02},
		BinaryHash:  img.BinaryHash,
		ManifestFP:  []byte("manifest-fp"),
		ImageDigest: digest,
	}
	if err := p.SignVerdict(cert); err != nil {
		t.Fatalf("sign: %v", err)
	}
	return cert
}

// newCertFixture wires a cert server, a client store and a platform. root
// is the client's local trust root — empty until a test provisions it, the
// way an operator's trusted-keys file would.
func newCertFixture(t *testing.T) (srv *CertServer, store *HTTPCertStore, p *attest.Platform, root *attest.Service) {
	t.Helper()
	srv = NewCertServer(nil)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	p, err := attest.NewPlatform("fleet-platform-1")
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	root = attest.NewService()
	return srv, NewHTTPCertStore(hs.URL, root), p, root
}

func TestCertHTTPRoundTrip(t *testing.T) {
	srv, store, p, root := newCertFixture(t)
	img := testImage()
	cert := signedCert(t, p, img)

	// Vendor provisioning: the issuer's key enters the local trust root out
	// of band, never through the store.
	root.RegisterKey(p.ID(), p.PublicKey())

	if err := store.PutCert(cert, img); err != nil {
		t.Fatalf("put: %v", err)
	}
	if srv.Len() != 1 {
		t.Fatalf("server holds %d certs", srv.Len())
	}

	got, gotImg, ok := store.GetCert(vplane.Key(cert.Key))
	if !ok {
		t.Fatal("get miss")
	}
	if got.PlatformID != p.ID() || got.Key != cert.Key || got.ImageDigest != cert.ImageDigest {
		t.Fatalf("cert did not round-trip: %+v", got)
	}
	// The image survives JSON intact: the digest recomputed from the
	// fetched copy matches the certificate's binding, which is exactly the
	// admission check vplane will run.
	if d, err := vplane.ImageDigest(gotImg); err != nil || d != cert.ImageDigest {
		t.Fatalf("image digest changed across the HTTP round trip (err %v)", err)
	}
	if gotImg.Stats != img.Stats {
		t.Fatalf("verdict evidence lost: %+v", gotImg.Stats)
	}
	// Check verifies the signature against the provisioned trust root.
	if err := store.Check(got); err != nil {
		t.Fatalf("check: %v", err)
	}
	// Tampering after the fetch is caught by the same path.
	got.ManifestFP = []byte("evil")
	if err := store.Check(got); err == nil {
		t.Fatal("tampered cert passed Check")
	}
}

func TestCertHTTPMissIsMiss(t *testing.T) {
	_, store, _, _ := newCertFixture(t)
	if _, _, ok := store.GetCert(vplane.Key{0xFF}); ok {
		t.Fatal("empty store returned a cert")
	}
}

// TestCertHTTPCheckUnprovisionedPlatform: with nothing provisioned, a
// validly signed certificate must fail closed — there is no path that
// learns the signer's key from the untrusted server.
func TestCertHTTPCheckUnprovisionedPlatform(t *testing.T) {
	_, store, p, _ := newCertFixture(t)
	img := testImage()
	cert := signedCert(t, p, img)
	if err := store.PutCert(cert, img); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, _, ok := store.GetCert(vplane.Key(cert.Key))
	if !ok {
		t.Fatal("get miss")
	}
	if err := store.Check(got); err == nil {
		t.Fatal("cert from unprovisioned platform passed Check")
	}
}

// TestCertHTTPNoPlatformRegistry: the server must not expose any platform
// key endpoints — the old enrolment registry let whoever reached the
// listener inject keys into peers' trust roots.
func TestCertHTTPNoPlatformRegistry(t *testing.T) {
	srv := NewCertServer(nil)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/platforms/some-id"},
		{http.MethodPut, "/platforms/some-id"},
	} {
		r, err := http.NewRequest(req.method, hs.URL+req.path, strings.NewReader("attacker-key"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = HTTP %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

func TestCertHTTPServerRejectsKeyMismatch(t *testing.T) {
	_, store, p, root := newCertFixture(t)
	img := testImage()
	cert := signedCert(t, p, img)
	root.RegisterKey(p.ID(), p.PublicKey())
	// Corrupt the key after signing; the URL (derived from the key) and the
	// body now agree with each other, so this exercises the admission-side
	// signature check instead of the server's URL/body comparison.
	cert.Key[0] ^= 0xFF
	if err := store.PutCert(cert, img); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, _, ok := store.GetCert(vplane.Key(cert.Key))
	if !ok {
		t.Fatal("get miss")
	}
	if err := store.Check(got); err == nil {
		t.Fatal("key-tampered cert passed signature check")
	}
}
