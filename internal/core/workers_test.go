package core

import "testing"

// TestClampWorkers pins the normalisation table against a known
// GOMAXPROCS.
func TestClampWorkers(t *testing.T) {
	setGOMAXPROCS(t, 3)
	for _, c := range []struct{ in, want int }{
		{-1, 3}, {-100, 3}, {0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 3}, {1 << 20, 3},
	} {
		if got := ClampWorkers(c.in); got != c.want {
			t.Errorf("ClampWorkers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
