package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// The golden tier: small committed fixtures of (topology, fault set,
// behaviour) → expected fault set and per-phase look-up counts,
// replayed against both the paper-literal free functions and the
// engine serving path. Because every final-pass kernel is defined to
// be result- and look-up-identical to the reference, a refactor of the
// final pass that changes any golden number is a visible diff in
// testdata/golden/, not a silent drift.
//
// Regenerate with:
//
//	go test ./internal/core -run Golden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current implementation")

// goldenStats is the pinned cost profile: the Stats shape fields plus
// the per-phase look-up split.
type goldenStats struct {
	Delta         int   `json:"delta"`
	PartsScanned  int   `json:"partsScanned"`
	CertifiedPart int   `json:"certifiedPart"`
	Seed          int32 `json:"seed"`
	HealthyCount  int   `json:"healthyCount"`
	FaultCount    int   `json:"faultCount"`
	Rounds        int   `json:"rounds"`
	CertLookups   int64 `json:"certLookups"`
	FinalLookups  int64 `json:"finalLookups"`
	TotalLookups  int64 `json:"totalLookups"`

	// Churn stamps: zero on pristine engines, populated by the flap tier
	// of the corpus for the degraded phases.
	Degraded       bool `json:"degraded,omitempty"`
	EffectiveDelta int  `json:"effectiveDelta,omitempty"`
}

type goldenFixture struct {
	Net          string  `json:"net"`
	Faults       []int32 `json:"faults"`
	Behavior     string  `json:"behavior"`
	BehaviorSeed uint64  `json:"behaviorSeed,omitempty"`

	WantErr    string      `json:"wantErr,omitempty"`
	WantFaults []int32     `json:"wantFaults,omitempty"`
	WantStats  goldenStats `json:"wantStats"`
}

// goldenCases defines the corpus: a declared family per kernel
// (xor-cayley, multi-bit, additive-rotate), a declared mixed-radix
// family and a permutation family on the generic pass, every adversary
// class, and one beyond-δ refusal.
// The injected fault sets are frozen into the fixtures at -update time.
var goldenCases = []struct {
	name     string
	net      string
	behavior string
	bseed    uint64
	faults   func(nw topology.Network) *bitset.Set
}{
	{"q8-mimic-delta", "q:8", "mimic", 0, randomGolden(1)},
	{"q8-allzero-cluster", "q:8", "allzero", 0, clusterGolden()},
	{"q10-inverted-delta", "q:10", "inverted", 0, randomGolden(2)},
	{"fq7-random-half", "fq:7", "random", 99, halfGolden(3)},
	{"kary4x3-allone", "kary:4,3", "allone", 0, randomGolden(4)},
	{"akary4x4-mimic", "akary:4,4", "mimic", 0, randomGolden(5)},
	{"star6-mimic", "star:6", "mimic", 0, randomGolden(6)},
	{"q8-empty", "q:8", "mimic", 0, func(nw topology.Network) *bitset.Set {
		return bitset.New(nw.Graph().N())
	}},
	{"q8-beyond-delta", "q:8", "allzero", 0, func(nw topology.Network) *bitset.Set {
		// The extremal neighbourhood configuration beyond the bound:
		// a refusal, pinned error string included.
		return syndrome.NeighborhoodFaults(nw.Graph(), 0, nw.Diagnosability()+2)
	}},
}

func randomGolden(seed int64) func(topology.Network) *bitset.Set {
	return func(nw topology.Network) *bitset.Set {
		return syndrome.RandomFaults(nw.Graph().N(), nw.Diagnosability(), rand.New(rand.NewSource(seed)))
	}
}

func halfGolden(seed int64) func(topology.Network) *bitset.Set {
	return func(nw topology.Network) *bitset.Set {
		return syndrome.RandomFaults(nw.Graph().N(), nw.Diagnosability()/2, rand.New(rand.NewSource(seed)))
	}
}

func clusterGolden() func(topology.Network) *bitset.Set {
	return func(nw topology.Network) *bitset.Set {
		return syndrome.ClusterFaults(nw.Graph(), int32(nw.Graph().N()-1), nw.Diagnosability())
	}
}

func goldenBehavior(name string, seed uint64) syndrome.Behavior {
	switch name {
	case "allzero":
		return syndrome.AllZero{}
	case "allone":
		return syndrome.AllOne{}
	case "mimic":
		return syndrome.Mimic{}
	case "inverted":
		return syndrome.Inverted{}
	case "random":
		return syndrome.Random{Seed: seed}
	}
	panic("unknown golden behaviour " + name)
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func statsToGolden(st *Stats) goldenStats {
	if st == nil {
		return goldenStats{}
	}
	return goldenStats{
		Delta: st.Delta, PartsScanned: st.PartsScanned, CertifiedPart: st.CertifiedPart,
		Seed: st.Seed, HealthyCount: st.HealthyCount, FaultCount: st.FaultCount,
		Rounds: st.Rounds, CertLookups: st.CertLookups, FinalLookups: st.FinalLookups,
		TotalLookups: st.TotalLookups,
		Degraded:     st.Degraded, EffectiveDelta: st.EffectiveDelta,
	}
}

// TestGoldenSyndromes replays the committed corpus through the free
// functions and the engine and compares field by field.
func TestGoldenSyndromes(t *testing.T) {
	if *updateGolden {
		writeGoldenFixtures(t)
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden fixtures found (%v); run with -update-golden to create them", err)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fx goldenFixture
			if err := json.Unmarshal(raw, &fx); err != nil {
				t.Fatal(err)
			}
			nw, err := topology.Parse(fx.Net)
			if err != nil {
				t.Fatal(err)
			}
			F := bitset.FromMembers(nw.Graph().N(), fx.Faults)
			behavior := goldenBehavior(fx.Behavior, fx.BehaviorSeed)

			check := func(label string, got *bitset.Set, st *Stats, err error) {
				t.Helper()
				if fx.WantErr != "" {
					if err == nil || !strings.Contains(err.Error(), fx.WantErr) {
						t.Fatalf("%s: err %v, fixture wants %q", label, err, fx.WantErr)
					}
				} else if err != nil {
					t.Fatalf("%s: unexpected error %v", label, err)
				} else if !got.Equal(bitset.FromMembers(nw.Graph().N(), fx.WantFaults)) {
					t.Fatalf("%s: fault set %v differs from fixture %v", label, got, fx.WantFaults)
				}
				if g := statsToGolden(st); g != fx.WantStats {
					t.Fatalf("%s: stats drifted from golden fixture:\n got %+v\nwant %+v", label, g, fx.WantStats)
				}
			}

			got, st, derr := Diagnose(nw, syndrome.NewLazy(F, behavior))
			check("free", got, st, derr)
			eng := NewEngine(nw)
			got, st, derr = eng.Diagnose(syndrome.NewLazy(F, behavior))
			check("engine["+eng.KernelName()+"]", got, st, derr)
		})
	}
}

// writeGoldenFixtures regenerates the corpus from goldenCases and the
// current free-function implementation.
func writeGoldenFixtures(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases {
		nw, err := topology.Parse(c.net)
		if err != nil {
			t.Fatal(err)
		}
		F := c.faults(nw)
		fx := goldenFixture{
			Net: c.net, Faults: F.Members32(), Behavior: c.behavior, BehaviorSeed: c.bseed,
		}
		got, st, derr := Diagnose(nw, syndrome.NewLazy(F, goldenBehavior(c.behavior, c.bseed)))
		if derr != nil {
			fx.WantErr = derr.Error()
		} else {
			fx.WantFaults = got.Members32()
		}
		fx.WantStats = statsToGolden(st)
		raw, err := json.MarshalIndent(&fx, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(c.name), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("golden: wrote %s\n", goldenPath(c.name))
	}
}
