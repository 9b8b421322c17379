package search

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/kernels"
	"fpmix/internal/shadow"
)

// TestSearchTrajectoryPins pins the exact verdict trajectory of
// single-worker searches on four class-W kernels: an FNV-64a digest of
// the Evals sequence (label, kind, size, verdict, provenance, failure
// class) and of the checkpoint journal's bytes. With one worker the
// coordinator's settle order is deterministic, so any change to the
// verdict chain, the settle step, the queue order or what gets journaled
// moves a digest.
func TestSearchTrajectoryPins(t *testing.T) {
	pins := []struct {
		name           string
		evals, journal uint64
	}{
		{"ep", 0xf05e02867a484b78, 0x3467b45f790ef8b9},
		{"ft", 0x20560fa0a03dbc1b, 0x574fb7e971631ab8},
		{"cg", 0x5601fab3fa0f4f06, 0xc7860208a87bf687},
		{"mg", 0x12f693ed5d725a8, 0x6f71b29b34bac0b5},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			b, err := kernels.Get(pin.name, kernels.ClassW)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := shadow.Collect(pin.name+".W", b.Module, b.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), pin.name+".ckpt")
			jr, err := NewJournal(path, Fingerprint{Options: pin.name + ".W gran=insn"})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Target{Module: b.Module, Verify: b.Verify, MaxSteps: b.MaxSteps, Base: b.Base}, Options{
				Workers: 1, Granularity: config.KindInsn, BinarySplit: true, Prioritize: true,
				Shadow: sh, SensThreshold: b.SensTol, Checkpoint: jr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, ev := range res.Evals {
				fmt.Fprintf(h, "%s|%v|%d|%t|%v|%v\n", ev.Label, ev.Kind, ev.Insns, ev.Pass, ev.Prov, ev.Failure)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			jh := fnv.New64a()
			jh.Write(raw)
			if got := h.Sum64(); got != pin.evals {
				t.Errorf("Evals digest %#x, want %#x (%d verdicts)", got, pin.evals, len(res.Evals))
			}
			if got := jh.Sum64(); got != pin.journal {
				t.Errorf("journal digest %#x, want %#x (%d bytes)", got, pin.journal, len(raw))
			}
		})
	}
}
