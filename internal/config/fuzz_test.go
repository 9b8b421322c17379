package config

import (
	"strings"
	"testing"
)

// FuzzConfigRead feeds arbitrary text to the exchange-format reader. Two
// properties: no text makes Read panic, and any configuration Read
// accepts renders through Write to text that Read accepts and that
// renders to the same bytes again (a fixed point). The committed corpus
// covers the Figure 3 shape, an annotated fpsearch -o final, and a
// module name and a note that would render as the note separator.
func FuzzConfigRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		c, err := Read(strings.NewReader(text))
		if err != nil {
			return
		}
		once := c.String()
		again, err := Read(strings.NewReader(once))
		if err != nil {
			t.Fatalf("Read accepts %q but not its rendering %q: %v", text, once, err)
		}
		if twice := again.String(); twice != once {
			t.Fatalf("rendering %q reads back as %q", once, twice)
		}
	})
}
