package experiments

import (
	"strings"
	"testing"
)

// TestAllTablesGenerate runs every experiment end to end (short sweeps)
// and checks the tables are well-formed: every row has the full column
// count and no row reports a misdiagnosis or a failed step. Tables write
// "ERR" (bare, "ERR: <reason>" or "CT ERR") when a verdict is wrong or a
// run fails, so a distributed wave that misdiagnosed would otherwise
// leave a well-formed row behind.
func TestAllTablesGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	tables := All(false)
	if len(tables) != 15 {
		t.Fatalf("expected 15 experiment tables, got %d", len(tables))
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		if seen[tb.ID] {
			t.Fatalf("duplicate table id %s", tb.ID)
		}
		seen[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s: row %v has %d cells, want %d", tb.ID, row, len(row), len(tb.Columns))
			}
			for _, cell := range row {
				if strings.Contains(cell, "MISDIAGNOSIS") {
					t.Errorf("%s: misdiagnosis leaked into a table row: %v", tb.ID, row)
				}
				if strings.Contains(cell, "ERR") {
					t.Errorf("%s: failed step leaked into a table row: %v", tb.ID, row)
				}
			}
		}
	}
	// Every documented id must be reachable through ByID.
	for id := range seen {
		if _, err := ByID(id, false); err != nil {
			t.Errorf("ByID(%s) failed: %v", id, err)
		}
	}
}
