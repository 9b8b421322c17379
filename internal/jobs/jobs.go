// Package jobs is the durable job store of the fpmixd search service: a
// job state machine over per-job directories, spec validation, and the
// generalization of the search's checkpoint journal — every job's
// verdict journal is fingerprint-validated (image digest + option set)
// and resumable across server restarts — plus the shared cross-job
// verdict cache that deduplicates evaluation work between jobs over the
// same program image.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"fpmix/internal/config"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/search"
	"fpmix/internal/verify"
	"fpmix/internal/vm"
)

// State is a job's position in its lifecycle.
type State string

// The job state machine:
//
//	queued ──► running ──► done
//	              │  ├───► failed
//	              │  └───► cancelled
//	              └(server death)─► queued   (recovered at store open;
//	                                          the journal carries the work)
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions leave the state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid transitions; recovery (running → queued at store open) is
// handled separately because it is a crash edge, not a request.
var transitions = map[State][]State{
	StateQueued:  {StateRunning, StateCancelled},
	StateRunning: {StateDone, StateFailed, StateCancelled},
}

// canTransition reports whether from → to is a legal request edge.
func canTransition(from, to State) bool {
	for _, t := range transitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// VerifierSpec is the acceptance routine an uploaded-image job declares
// (kernel jobs carry their own verification). The reference outputs are
// the image's own double-precision run.
type VerifierSpec struct {
	// Mode: "rel" accepts outputs whose maximum elementwise relative
	// error against the reference stays within Tol; "bitexact" requires
	// bit-identical outputs.
	Mode string  `json:"mode"`
	Tol  float64 `json:"tol,omitempty"`
}

func (v *VerifierSpec) validate() error {
	switch v.Mode {
	case "rel":
		if !(v.Tol > 0) {
			return fmt.Errorf("jobs: verifier mode %q needs tol > 0", v.Mode)
		}
	case "bitexact":
		if v.Tol != 0 {
			return fmt.Errorf("jobs: verifier mode %q takes no tol", v.Mode)
		}
	default:
		return fmt.Errorf("jobs: unknown verifier mode %q (have rel, bitexact)", v.Mode)
	}
	return nil
}

// Spec describes one search job: what to search (a registered kernel,
// or an uploaded module image plus a verifier spec) and the options
// that shape the search trajectory.
type Spec struct {
	// Kernel names a registered benchmark (kernels.Names()); Class its
	// input class (default W). Mutually exclusive with Image.
	Kernel string `json:"kernel,omitempty"`
	Class  string `json:"class,omitempty"`

	// Image is a serialized module (prog.Save) to search instead of a
	// kernel; Verifier is required with it, and MaxSteps optionally
	// bounds instrumented runs.
	Image    []byte        `json:"image,omitempty"`
	Verifier *VerifierSpec `json:"verifier,omitempty"`
	MaxSteps uint64        `json:"max_steps,omitempty"`

	// Granularity is the finest search level: func, block or insn
	// (default insn).
	Granularity string `json:"granularity,omitempty"`
	// Trajectory switches, mirroring the fpsearch flags.
	NoSens  bool `json:"nosens,omitempty"`
	NoPrune bool `json:"noprune,omitempty"`
	NoProve bool `json:"noprove,omitempty"`
	// Chaos arms seeded fault injection on evaluations (a self-test:
	// the final configuration must not change). 0 = off.
	Chaos int64 `json:"chaos,omitempty"`
}

// withDefaults returns the spec with empty fields defaulted.
func (sp Spec) withDefaults() Spec {
	if sp.Kernel != "" && sp.Class == "" {
		sp.Class = "W"
	}
	if sp.Granularity == "" {
		sp.Granularity = "insn"
	}
	return sp
}

// Validate rejects malformed specs with an actionable error.
func (sp Spec) Validate() error {
	sp = sp.withDefaults()
	switch {
	case sp.Kernel == "" && len(sp.Image) == 0:
		return fmt.Errorf("jobs: spec needs a kernel name or an uploaded image")
	case sp.Kernel != "" && len(sp.Image) != 0:
		return fmt.Errorf("jobs: kernel and image are mutually exclusive")
	}
	switch sp.Granularity {
	case "func", "block", "insn":
	default:
		return fmt.Errorf("jobs: unknown granularity %q (have func, block, insn)", sp.Granularity)
	}
	if sp.Kernel != "" {
		known := false
		for _, n := range kernels.Names() {
			if n == sp.Kernel {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("jobs: unknown kernel %q (have %v)", sp.Kernel, kernels.Names())
		}
		switch kernels.Class(sp.Class) {
		case kernels.ClassW, kernels.ClassA, kernels.ClassC:
		default:
			return fmt.Errorf("jobs: unknown class %q (have W, A, C)", sp.Class)
		}
		if sp.Verifier != nil {
			return fmt.Errorf("jobs: kernel jobs carry their own verification; verifier is for uploaded images")
		}
		return nil
	}
	if sp.Verifier == nil {
		return fmt.Errorf("jobs: uploaded-image jobs need a verifier spec")
	}
	if err := sp.Verifier.validate(); err != nil {
		return err
	}
	if _, err := prog.Load(sp.Image); err != nil {
		return fmt.Errorf("jobs: image does not parse: %w", err)
	}
	return nil
}

// Name is the job's human-readable workload label ("ep.W", or
// "image:<digest prefix>" for uploads).
func (sp Spec) Name() string {
	sp = sp.withDefaults()
	if sp.Kernel != "" {
		return sp.Kernel + "." + sp.Class
	}
	sum := sha256.Sum256(sp.Image)
	return "image:" + hex.EncodeToString(sum[:4])
}

// Built is a spec's built search target with the verifier tolerance the
// sensitivity gate compares against, as Spec.Build returns them.
type Built struct {
	Target  search.Target
	SensTol float64
}

// Build constructs the search target the spec describes, together with
// the verifier tolerance the sensitivity gate compares against (0
// disables gating). For an uploaded image the reference outputs come
// from the image's own double-precision run, which must complete
// cleanly.
func (sp Spec) Build() (search.Target, float64, error) {
	sp = sp.withDefaults()
	if sp.Kernel != "" {
		b, err := kernels.Get(sp.Kernel, kernels.Class(sp.Class))
		if err != nil {
			return search.Target{}, 0, err
		}
		return search.Target{
			Module:   b.Module,
			Verify:   b.Verify,
			MaxSteps: b.MaxSteps,
			Base:     b.Base,
		}, b.SensTol, nil
	}
	m, err := prog.Load(sp.Image)
	if err != nil {
		return search.Target{}, 0, fmt.Errorf("jobs: image does not parse: %w", err)
	}
	lp, err := vm.Link(m)
	if err != nil {
		return search.Target{}, 0, err
	}
	mach := lp.NewMachine()
	mach.MaxSteps = sp.MaxSteps
	if err := mach.Run(); err != nil {
		return search.Target{}, 0, fmt.Errorf("jobs: reference run of uploaded image failed: %w", err)
	}
	ref := verify.Decode(mach.Out)
	var vf func([]vm.OutVal) bool
	sensTol := 0.0
	switch sp.Verifier.Mode {
	case "bitexact":
		vf = verify.BitExact(ref)
	default:
		vf = verify.Tolerance(ref, sp.Verifier.Tol)
		if sp.Verifier.Mode == "rel" {
			sensTol = sp.Verifier.Tol
		}
	}
	return search.Target{Module: m, Verify: vf, MaxSteps: sp.MaxSteps}, sensTol, nil
}

// Granularity as a config.Kind.
func (sp Spec) Kind() config.Kind {
	switch sp.withDefaults().Granularity {
	case "func":
		return config.KindFunc
	case "block":
		return config.KindBlock
	default:
		return config.KindInsn
	}
}

// Fingerprint derives the job's journal fingerprint from its built
// module. The Image field scopes verdict validity (module image,
// verification identity, step budget — everything a verdict depends on
// besides the address set), so it doubles as the shared verdict-cache
// scope; the Options field captures the search shape, which only
// affects the trajectory. Its fork=true token is constant (fork-point
// evaluation is the only cached engine) and stays so that journals
// written while it was a switch still resume.
func (sp Spec) Fingerprint(m *prog.Module) (search.Fingerprint, error) {
	sp = sp.withDefaults()
	img, err := search.ModuleFingerprint(m)
	if err != nil {
		return search.Fingerprint{}, err
	}
	h := sha256.New()
	io.WriteString(h, img)
	if sp.Kernel != "" {
		fmt.Fprintf(h, "|verify=kernel:%s.%s", sp.Kernel, sp.Class)
	} else {
		fmt.Fprintf(h, "|verify=%s:%g|maxsteps=%d", sp.Verifier.Mode, sp.Verifier.Tol, sp.MaxSteps)
	}
	return search.Fingerprint{
		Image: hex.EncodeToString(h.Sum(nil)),
		Options: fmt.Sprintf("%s gran=%s sens=%t prune=%t prove=%t fork=true chaos=%d",
			sp.Name(), sp.Granularity, !sp.NoSens, !sp.NoPrune, !sp.NoProve, sp.Chaos),
	}, nil
}
