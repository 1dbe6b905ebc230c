package syndrome

import (
	"strings"
	"testing"
)

// FuzzParseBehavior fuzzes the behaviour name a client sends with each
// diagnosis: ParseBehavior never panics, a name it accepts resolves to
// a behaviour whose Name parses back to the same behaviour, and its
// errors carry exactly one "syndrome: " prefix.
func FuzzParseBehavior(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, seed uint64) {
		b, err := ParseBehavior(name, seed)
		if err != nil {
			rest, ok := strings.CutPrefix(err.Error(), "syndrome: ")
			if !ok || strings.HasPrefix(rest, "syndrome: ") {
				t.Fatalf("ParseBehavior(%q): error %q, want exactly one \"syndrome: \" prefix", name, err)
			}
			return
		}
		again, err := ParseBehavior(b.Name(), seed)
		if err != nil {
			t.Fatalf("ParseBehavior(%q) = %s, whose name does not parse: %v", name, b.Name(), err)
		}
		if again != b {
			t.Fatalf("ParseBehavior(%q) = %#v, but its name %q parses to %#v", name, b, b.Name(), again)
		}
	})
}
