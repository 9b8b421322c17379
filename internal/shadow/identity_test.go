package shadow_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fpmix/internal/kernels"
	"fpmix/internal/shadow"
)

// profileDigests pins the persisted sensitivity profile of every kernel at
// class W. The shadow pass's memory representation may change for speed;
// what it measures may not.
var profileDigests = map[string]string{
	"amg":     "b9f7120e790ba3c2c7bb6b12be858b004b6deee2a50d32d5fb218355e8f87312",
	"bt":      "4ad8e481a6d494b48bc9a7456d074b42df2dd8fadc1bd78e03131c64e85acced",
	"cg":      "bfb546b81a1c695ef289bd7558f84dc2efd5e75c3e8a12de3d41c1aa417727a2",
	"ep":      "a12edcd6f86dbc1debabb3834da2399598f1c6632f1e185bcec93d40fb88ce21",
	"ft":      "bf6e5f02c7bb014dfa2609c1b567ef7bd6c2925c371156b1afd67cb457cc1879",
	"lu":      "7d1b8f40c13e3eac2dd74895faa6af502e67b6ded947327d0bca96d8227c768e",
	"mg":      "8fdefb68f6e1d3734f36f55285434c9d0b2ced6770b5ebbcc3a793820f5824c9",
	"sp":      "46f359832a3f275d9ffa8c8207e6e00efbfa7bd477feb9ceb0c3589b941aef36",
	"superlu": "790020e9561c7499c4ba43df2e1dd03510aa08eab05a5a5489a18c8ecbb157b1",
}

// TestCollectIdentityPins: shadow.Write of every kernel's collected
// profile is byte-identical to the pinned digest.
func TestCollectIdentityPins(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				t.Fatal(err)
			}
			p, err := shadow.Collect(name+".W", b.Module, b.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := shadow.Write(&buf, p); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got, want := hex.EncodeToString(sum[:]), profileDigests[name]; got != want {
				t.Errorf("profile digest %s, want %s (%d records)", got, want, len(p.Records))
			}
		})
	}
}
