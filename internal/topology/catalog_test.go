package topology

import (
	"errors"
	"reflect"
	"testing"
)

// TestCatalogExamplesParse: every catalogued example spec must build,
// and its spec prefix must round-trip through Parse.
func TestCatalogExamplesParse(t *testing.T) {
	if len(Catalog()) != 14 {
		t.Fatalf("catalog lists %d families, the paper has 14", len(Catalog()))
	}
	for _, fam := range Catalog() {
		nw, err := Parse(fam.Example)
		if err != nil {
			t.Errorf("%s: example %q does not parse: %v", fam.Name, fam.Example, err)
			continue
		}
		if nw.Graph().N() == 0 {
			t.Errorf("%s: empty graph", fam.Name)
		}
		if nw.Diagnosability() < 1 || nw.Connectivity() < nw.Diagnosability() {
			t.Errorf("%s: κ=%d < δ=%d", fam.Name, nw.Connectivity(), nw.Diagnosability())
		}
	}
}

// TestCatalogFieldsNonEmpty keeps the documentation honest.
func TestCatalogFieldsNonEmpty(t *testing.T) {
	for _, fam := range Catalog() {
		if fam.Spec == "" || fam.Name == "" || fam.Params == "" ||
			fam.DegreeFormula == "" || fam.KappaFormula == "" ||
			fam.DeltaFormula == "" || fam.Reference == "" || fam.Example == "" {
			t.Errorf("catalog entry %q has empty fields", fam.Spec)
		}
	}
}

// TestPartsDeterministic turns the Parts contract into a check: repeated
// calls with the same arguments return the same parts in the same order,
// seeds included, on one network and on a second parse of its spec.
// Wherever no declared descriptor partitions the level, the engine
// relies on it twice: a healthy binding derives its full partition
// again from Parts(δ+1, δ+1), and a tightened bound b takes its
// candidates from Parts(b+1, b+1). Families that cannot partition at a
// bound must refuse it the same way every time.
func TestPartsDeterministic(t *testing.T) {
	for _, fam := range Catalog() {
		nw, err := Parse(fam.Example)
		if err != nil {
			t.Fatalf("%s: %v", fam.Example, err)
		}
		twin, err := Parse(fam.Example)
		if err != nil {
			t.Fatalf("%s: %v", fam.Example, err)
		}
		delta := nw.Diagnosability()
		bounds := []int{delta}
		for b := 1; b < delta; b++ {
			bounds = append(bounds, b)
		}
		for _, b := range bounds {
			first, err1 := nw.Parts(b+1, b+1)
			again, err2 := nw.Parts(b+1, b+1)
			other, err3 := twin.Parts(b+1, b+1)
			if err1 != nil && !errors.Is(err1, ErrNoPartition) {
				t.Errorf("%s bound %d: unexpected error %v", fam.Example, b, err1)
			}
			if !sameErr(err1, err2) || !sameErr(err1, err3) {
				t.Errorf("%s bound %d: errors differ: %v / %v / %v", fam.Example, b, err1, err2, err3)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s bound %d: a repeated Parts call returned different parts", fam.Example, b)
			}
			if !reflect.DeepEqual(first, other) {
				t.Errorf("%s bound %d: a second parse returned different parts", fam.Example, b)
			}
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}
