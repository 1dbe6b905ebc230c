package topology

import (
	"strconv"
	"strings"
	"testing"
)

func TestParseValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		name string
		n    int
	}{
		{"q:6", "Q6", 64},
		{"hypercube:6", "Q6", 64},
		{"cq:5", "CQ5", 32},
		{"tq:5", "TQ5", 32},
		{"fq:5", "FQ5", 32},
		{"eq:5,3", "Q(5,3)", 32},
		{"aq:5", "AQ5", 32},
		{"sq:6", "SQ6", 64},
		{"tnq:5", "TQ'5", 32},
		{"kary:3,3", "Q^3_3", 27},
		{"akary:4,2", "AQ(2,4)", 16},
		{"star:4", "S4", 24},
		{"nkstar:5,3", "S(5,3)", 60},
		{"pancake:4", "P4", 24},
		{"arr:5,2", "A(5,2)", 20},
		{"ARR:5,2", "A(5,2)", 20}, // case-insensitive family
	}
	for _, c := range cases {
		nw, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if nw.Name() != c.name {
			t.Errorf("%s: name %q, want %q", c.spec, nw.Name(), c.name)
		}
		if nw.Graph().N() != c.n {
			t.Errorf("%s: N = %d, want %d", c.spec, nw.Graph().N(), c.n)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",           // no colon
		"q",          // no args
		"q:",         // empty arg
		"q:abc",      // non-numeric
		"q:5,5",      // wrong arity
		"bogus:5",    // unknown family
		"tq:4",       // twisted cube needs odd n (constructor panic → error)
		"sq:8",       // shuffle needs n ≡ 2 mod 4
		"nkstar:5,9", // k out of range
		"kary:2,3",   // k ≥ 3 required
		"arr:5",      // missing k
		"q:1",        // dimension too small
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q: expected error", spec)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("spec %q: raw panic leaked: %v", spec, err)
		}
	}
}

// TestParseErrorPrefix pins one "topology: " prefix on every Parse
// error, constructor refusals included: their panics already carry
// the prefix, and served 400 bodies show the text as is.
func TestParseErrorPrefix(t *testing.T) {
	for _, spec := range []string{
		"q:1", "hypercube:0", "cq:1", "tq:4", "fq:1", "eq:6,1", "eq:6,7",
		"aq:1", "sq:8", "tnq:1", "kary:2,3", "akary:3,1", "star:2",
		"star:13", "nkstar:5,9", "pancake:13", "arr:5,5",
		"q:27", "bogus:5", "q:abc", "q:5,5", "",
	} {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("%q: expected an error", spec)
			continue
		}
		if !singlePrefix(err.Error()) {
			t.Errorf("%q: error %q, want exactly one \"topology: \" prefix", spec, err)
		}
	}
}

// singlePrefix reports whether msg starts with "topology: " once, not
// twice.
func singlePrefix(msg string) bool {
	rest, ok := strings.CutPrefix(msg, "topology: ")
	return ok && !strings.HasPrefix(rest, "topology: ")
}

// binaryCubeNames are the Parse families of order 2^n, the only ones
// FuzzParse builds with arguments up to 12.
var binaryCubeNames = map[string]bool{
	"q": true, "hypercube": true, "cq": true, "crossed": true, "tq": true, "twisted": true,
	"fq": true, "folded": true, "eq": true, "enhanced": true, "aq": true, "augmented": true,
	"sq": true, "shuffle": true, "tnq": true, "twistedn": true,
}

// FuzzParse fuzzes the spec parser clients reach through the service:
// Parse never panics, its errors carry one "topology: " prefix, and a
// graph it builds has strictly ascending, symmetric, loop-free blocks.
// Specs whose graph could be large are skipped: any integer argument
// beyond 12 (Q12 has 4,096 nodes), or beyond 6 outside the binary
// cubes, whose orders grow as n!, n!/(n−k)! or k^n.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		name, args, _ := strings.Cut(spec, ":")
		limit := 6
		if binaryCubeNames[strings.ToLower(name)] {
			limit = 12
		}
		for _, a := range strings.Split(args, ",") {
			if v, err := strconv.Atoi(strings.TrimSpace(a)); err == nil && v > limit {
				t.Skip("large graph")
			}
		}
		nw, err := Parse(spec)
		if err != nil {
			if !singlePrefix(err.Error()) {
				t.Fatalf("Parse(%q): error %q, want exactly one \"topology: \" prefix", spec, err)
			}
			return
		}
		if err := nw.Graph().Validate(); err != nil {
			t.Fatalf("Parse(%q) = %s: %v", spec, nw.Name(), err)
		}
	})
}
