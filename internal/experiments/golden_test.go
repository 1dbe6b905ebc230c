package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDistributedComparisonGolden pins table T12 byte for byte: every
// row's rounds, messages, records, tests and one-port time, and the
// notes. The counts are deterministic (fixed fault seed, BSP engine
// output merged in node order), so any change to the distributed
// simulator that moves one of them is a visible diff in testdata/.
//
// Regenerate with:
//
//	go run ./cmd/benchtab -table t12 > internal/experiments/testdata/t12.golden
func TestDistributedComparisonGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "t12.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	DistributedComparison(false).Fprint(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("T12 drifted from testdata/t12.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
