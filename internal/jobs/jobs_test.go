package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/search"
)

func TestSpecValidate(t *testing.T) {
	img := testImage(t)
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" = valid
	}{
		{"empty", Spec{}, "kernel name or an uploaded image"},
		{"kernel ok", Spec{Kernel: "ep"}, ""},
		{"kernel+class ok", Spec{Kernel: "mg", Class: "A"}, ""},
		{"unknown kernel", Spec{Kernel: "nope"}, "unknown kernel"},
		{"unknown class", Spec{Kernel: "ep", Class: "Z"}, "unknown class"},
		{"bad gran", Spec{Kernel: "ep", Granularity: "nibble"}, "unknown granularity"},
		{"both", Spec{Kernel: "ep", Image: img}, "mutually exclusive"},
		{"kernel verifier", Spec{Kernel: "ep", Verifier: &VerifierSpec{Mode: "rel", Tol: 1e-8}}, "carry their own"},
		{"image no verifier", Spec{Image: img}, "need a verifier"},
		{"image ok", Spec{Image: img, Verifier: &VerifierSpec{Mode: "rel", Tol: 1e-8}}, ""},
		{"image bitexact ok", Spec{Image: img, Verifier: &VerifierSpec{Mode: "bitexact"}}, ""},
		{"bad verifier mode", Spec{Image: img, Verifier: &VerifierSpec{Mode: "vibes"}}, "unknown verifier mode"},
		{"rel needs tol", Spec{Image: img, Verifier: &VerifierSpec{Mode: "rel"}}, "tol > 0"},
		{"bad image", Spec{Image: []byte("junk"), Verifier: &VerifierSpec{Mode: "bitexact"}}, "does not parse"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not mention %q", err, c.want)
			}
		})
	}
}

// testImage serializes a small kernel module as an uploaded image.
func testImage(t *testing.T) []byte {
	t.Helper()
	b, err := kernels.Get("ep", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.Save(b.Module)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSpecBuildSensTol: the one target build also yields the
// sensitivity-gate tolerance — the kernel's own, an uploaded relative
// verifier's tolerance, and 0 (no gating) for a bit-exact verifier.
func TestSpecBuildSensTol(t *testing.T) {
	b, err := kernels.Get("ep", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(t)
	cases := []struct {
		name string
		spec Spec
		want float64
	}{
		{"kernel", Spec{Kernel: "ep", Class: "W"}, b.SensTol},
		{"rel image", Spec{Image: img, Verifier: &VerifierSpec{Mode: "rel", Tol: 1e-6}}, 1e-6},
		{"bitexact image", Spec{Image: img, Verifier: &VerifierSpec{Mode: "bitexact"}}, 0},
	}
	for _, c := range cases {
		_, tol, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tol != c.want {
			t.Errorf("%s: sensitivity tolerance %g, want %g", c.name, tol, c.want)
		}
	}
}

func TestSpecFingerprintScoping(t *testing.T) {
	epW := Spec{Kernel: "ep", Class: "W"}
	tgt, _, err := epW.Build()
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := epW.Fingerprint(tgt.Module)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := epW.Fingerprint(tgt.Module)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Error("fingerprint not deterministic")
	}
	// The option string is part of every journal header: it must stay
	// byte-identical so journals written by an earlier daemon resume.
	if want := "ep.W gran=insn sens=true prune=true prove=true fork=true chaos=0"; fp1.Options != want {
		t.Errorf("default option string = %q, want %q", fp1.Options, want)
	}
	// A spec from an older client may still carry the retired nofork
	// switch: it decodes, and searches exactly as the default spec.
	var old Spec
	if err := json.Unmarshal([]byte(`{"kernel":"ep","class":"W","nofork":true}`), &old); err != nil {
		t.Fatalf("spec with nofork does not decode: %v", err)
	}
	if err := old.Validate(); err != nil {
		t.Fatal(err)
	}
	if fp, err := old.Fingerprint(tgt.Module); err != nil || fp != fp1 {
		t.Errorf("spec with nofork fingerprints as %+v (%v), want %+v", fp, err, fp1)
	}
	// A different trajectory shape shares the image scope (verdicts stay
	// valid) but differs in the option set (journals do not transfer).
	noSens := Spec{Kernel: "ep", Class: "W", NoSens: true}
	fp3, err := noSens.Fingerprint(tgt.Module)
	if err != nil {
		t.Fatal(err)
	}
	if fp3.Image != fp1.Image {
		t.Error("trajectory option changed the image scope")
	}
	if fp3.Options == fp1.Options {
		t.Error("trajectory option did not change the option set")
	}
	// A different class is a different image (different module build).
	mgW := Spec{Kernel: "mg", Class: "W"}
	tgt2, _, err := mgW.Build()
	if err != nil {
		t.Fatal(err)
	}
	fp4, err := mgW.Fingerprint(tgt2.Module)
	if err != nil {
		t.Fatal(err)
	}
	if fp4.Image == fp1.Image {
		t.Error("different kernels share an image scope")
	}
}

// TestSpecBuildKey: specs that build the same target share a key
// whatever their search shape; a different class, image, verifier or
// step budget is a different key. A prebuilt target is recorded under
// the same image digest a fresh build would give, with its base
// configuration resolved.
func TestSpecBuildKey(t *testing.T) {
	img := testImage(t)
	rel := Spec{Image: img, Verifier: &VerifierSpec{Mode: "rel", Tol: 1e-6}}
	same := [][2]Spec{
		{{Kernel: "ep"}, {Kernel: "ep", Class: "W", NoSens: true, Granularity: "func", Chaos: 7}},
		{rel, {Image: img, Verifier: &VerifierSpec{Mode: "rel", Tol: 1e-6}, NoProve: true}},
	}
	for _, p := range same {
		if p[0].BuildKey() != p[1].BuildKey() {
			t.Errorf("%q and %q differ", p[0].BuildKey(), p[1].BuildKey())
		}
	}
	distinct := []Spec{
		{Kernel: "ep"}, {Kernel: "ep", Class: "A"}, {Kernel: "mg"}, rel,
		{Image: img, Verifier: &VerifierSpec{Mode: "rel", Tol: 1e-7}},
		{Image: img, Verifier: &VerifierSpec{Mode: "bitexact"}},
		{Image: img, Verifier: &VerifierSpec{Mode: "rel", Tol: 1e-6}, MaxSteps: 1 << 30},
	}
	seen := map[string]int{}
	for i, sp := range distinct {
		if j, ok := seen[sp.BuildKey()]; ok {
			t.Errorf("specs %d and %d share key %q", j, i, sp.BuildKey())
		}
		seen[sp.BuildKey()] = i
	}

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rel.Built()
	if err != nil {
		t.Fatal(err)
	}
	if b.Target.Base == nil {
		t.Error("built target has no base configuration")
	}
	fresh, err := st.Create(rel)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := st.CreateBuilt(rel, &b)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Fingerprint() != fresh.Fingerprint() {
		t.Errorf("prebuilt job fingerprints as %+v, a fresh build as %+v", pre.Fingerprint(), fresh.Fingerprint())
	}
}

func TestStoreLifecycleAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Create(Spec{Kernel: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.Name != "ep.W" || j.Image == "" {
		t.Fatalf("unexpected created job: %+v", j)
	}
	if err := st.Transition(j.ID, StateDone, ""); err == nil {
		t.Error("queued → done accepted")
	}
	if err := st.Transition(j.ID, StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	// Journal generalization: any job's journal is fingerprint-validated.
	jr, resumed, err := st.OpenJournal(j.ID, j.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Errorf("fresh journal claims %d resumed verdicts", resumed)
	}
	jr.Close()

	// A second store over the same dir recovers the running job to
	// queued (the server died), bumping its recovery count.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get(j.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if got.State != StateQueued || got.Recovered != 1 {
		t.Errorf("recovery: state %s recovered %d, want queued/1", got.State, got.Recovered)
	}
	if rec := st2.Recovered(); len(rec) != 1 || rec[0] != j.ID {
		t.Errorf("Recovered() = %v", rec)
	}
	// The journal resumes under the recorded fingerprint — and refuses a
	// diverged one, naming the field.
	jr2, _, err := st2.OpenJournal(j.ID, got.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	jr2.Close()
	bad := got.Fingerprint()
	bad.Image = strings.Repeat("0", len(bad.Image))
	if _, _, err := st2.OpenJournal(j.ID, bad); err == nil || !strings.Contains(err.Error(), "image fingerprint diverged") {
		t.Errorf("image divergence not diagnosed: %v", err)
	}

	// IDs keep counting across restarts.
	j2, err := st2.Create(Spec{Kernel: "mg"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID <= j.ID {
		t.Errorf("ID sequence went backwards: %s then %s", j.ID, j2.ID)
	}
	if l := st2.List(); len(l) != 2 || l[0].ID != j.ID || l[1].ID != j2.ID {
		t.Errorf("List() = %+v", l)
	}
}

func TestCachePersistenceAndScoping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.vc")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Scope("scopeA"), c.Scope("scopeB")
	a.Store("k1", search.CachedVerdict{Pass: true})
	a.Store("k2", search.CachedVerdict{Pass: false})
	a.Store("k3", search.CachedVerdict{Pass: true, Proved: true})
	b.Store("k1", search.CachedVerdict{Pass: false})
	// Idempotent re-store must not duplicate.
	a.Store("k1", search.CachedVerdict{Pass: true})
	if v, ok := a.Lookup("k1"); !ok || !v.Pass {
		t.Errorf("scopeA k1 = %+v ok=%v", v, ok)
	}
	if v, ok := b.Lookup("k1"); !ok || v.Pass {
		t.Errorf("scopeB k1 = %+v ok=%v (scopes leak)", v, ok)
	}
	if _, ok := b.Lookup("k3"); ok {
		t.Error("scopeB sees scopeA's k3")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all four verdicts survive, with provenance.
	c2, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 4 {
		t.Errorf("reloaded %d entries, want 4", c2.Len())
	}
	if v, ok := c2.Scope("scopeA").Lookup("k3"); !ok || !v.Proved || !v.Pass {
		t.Errorf("proved verdict lost: %+v ok=%v", v, ok)
	}

	// A torn final append is skipped on load, not fatal.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("scopeA dead")
	f.Close()
	c3, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 4 {
		t.Errorf("torn tail changed entry count: %d", c3.Len())
	}
}

// TestCacheStoreAfterTornTail pins that a torn final line cannot swallow
// the next verdict: the verdict stored after reopening a torn cache must
// be found on every later open.
func TestCacheStoreAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.vc")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Scope("scopeA").Store("k1", search.CachedVerdict{Pass: true})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("scopeA dead")
	f.Close()

	c2, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	c2.Scope("scopeA").Store("k2", search.CachedVerdict{Pass: true, Proved: true})
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	c3, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 2 {
		t.Errorf("reloaded %d entries, want 2", c3.Len())
	}
	if v, ok := c3.Scope("scopeA").Lookup("k2"); !ok || !v.Pass || !v.Proved {
		t.Errorf("verdict stored after the torn tail lost: %+v ok=%v", v, ok)
	}
}

func TestCacheConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.vc")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := c.Scope("s")
			for i := 0; i < 100; i++ {
				key := string(rune('a' + i%26))
				sc.Store(key, search.CachedVerdict{Pass: true})
				sc.Lookup(key)
			}
		}(w)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 26 {
		t.Errorf("reloaded %d entries, want 26", c2.Len())
	}
}
