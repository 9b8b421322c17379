package errbound_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"fpmix/internal/errbound"
	"fpmix/internal/kernels"
)

// analysisDigests pins the complete Analysis of every kernel at class W:
// every site's verdict and facts plus the fixpoint's work counters. The
// analyzer's data structures may change for speed; its result may not.
var analysisDigests = map[string]string{
	"amg":     "ec9d78456234b2e179329d5bf6d7bb3b372b995f972b277a49d277e41de1c5a8",
	"bt":      "ba3771c1dd95a8251941e0ba7a0b96ea6d963a8216bba9bc0eb0ea5d7f3619d5",
	"cg":      "3a2d3b48c66017d81110a7fafe37c1d8a1ad3faffb24ca51506fbba50329959b",
	"ep":      "619d06a8ba92155fc42ee5ebb2f499364921a4dd910dca6abb3718b0e61b3947",
	"ft":      "57a27308faf8ffc3f75656a8359c818dcf97697ee6d73fec809851548df7c065",
	"lu":      "fa85f303a591f1646539cece8120e2ffb425db0b8c4ea2f21185d8746d81d54d",
	"mg":      "ead137fd07a7ed252d2081e7569879610f8c97350aab011c1f1216156d3784a1",
	"sp":      "2288d5872984d9e9131d8025e77afd47f827caa24bd1ca3ea81d23de69df2707",
	"superlu": "86cee5102f7aa65de92bc78ced64e0a91e77f9a9ad389418cef465b24a5fe25e",
}

// analysisDigest hashes an Analysis canonically (sites in address order,
// floats in shortest round-trip form).
func analysisDigest(an *errbound.Analysis) string {
	h := sha256.New()
	fmt.Fprintf(h, "transfers=%d clamped=%d converged=%v\n", an.Transfers, an.Clamped, an.Converged)
	addrs := make([]uint64, 0, len(an.Sites))
	for a := range an.Sites {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		sb := an.Sites[a]
		fmt.Fprintf(h, "%#x %s %v %v %v %v %v %v %q %#x\n",
			sb.Addr, sb.Op, sb.Lo, sb.Hi, sb.Grid, sb.MayNaN, sb.Exact, sb.Unreached, sb.Reason, sb.Culprit)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnalysisIdentityPins: the prover's verdicts and work on every
// kernel at class W are byte-identical to the pinned digests.
func TestAnalysisIdentityPins(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				t.Fatal(err)
			}
			an, err := errbound.Analyze(b.Module, errbound.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := analysisDigest(an)
			if want := analysisDigests[name]; got != want {
				t.Errorf("analysis digest %s, want %s (transfers %d, clamped %d, converged %v)",
					got, want, an.Transfers, an.Clamped, an.Converged)
			}
		})
	}
}
