package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// errText is an error's message, "" for nil: the two bindings must
// fail with the same text, not merely both fail.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// tableNetwork serves a network's graph as a CSR table: the same
// topology, partitions and declared structure, over a graph built by
// graph.FromAdjacency from the descriptor-backed graph's neighbour
// lists, so every engine path that reads adjacency reads the table.
type tableNetwork struct {
	topology.CayleyStructured
	g *graph.Graph
}

func (t tableNetwork) Graph() *graph.Graph { return t.g }

func newTableNetwork(t *testing.T, spec string) tableNetwork {
	t.Helper()
	nw, err := topology.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := nw.Graph()
	return tableNetwork{nw.(topology.CayleyStructured), graph.FromAdjacency(g.N(), func(dst []int32, u int32) []int32 {
		return append(dst, g.Neighbors(u)...)
	})}
}

// TestServedHypercubeMatchesCSR is the binding differential: the engine
// the server binds for q:n (generator-backed, no CSR written) must be
// observationally identical to a twin bound to the same network served
// from a CSR table, for n = 2..16 — same kernel, same partition, and
// per syndrome the same fault set, whole-struct Stats, look-up count
// and error text (Q2, whose δ is 0, and Q3–Q5 have no Theorem 1
// partition and must refuse identically). Solo calls sweep every
// behaviour under every FaultBound 1..n; batches run with and without
// ShareHypotheses and a ResultCache, the cached ones twice so the
// second batch resumes stored hypotheses.
func TestServedHypercubeMatchesCSR(t *testing.T) {
	behaviors := syndrome.AllBehaviors(7)
	for n := 2; n <= 16; n++ {
		t.Run(fmt.Sprintf("Q%d", n), func(t *testing.T) {
			srv := New(Config{NoCoalesce: true})
			defer srv.Close()
			spec := fmt.Sprintf("q:%d", n)
			ent, err := srv.acquire(spec, false)
			if err != nil {
				t.Fatal(err)
			}
			defer ent.release()
			desc := ent.eng
			csr := core.NewEngine(newTableNetwork(t, spec))
			if binding, _ := adjacencyFootprint(desc); binding != "descriptor" {
				t.Fatalf("served %s bound as %q", spec, binding)
			}
			if desc.KernelName() != csr.KernelName() || desc.Diagnosability() != csr.Diagnosability() {
				t.Fatalf("kernel %s δ=%d, CSR kernel %s δ=%d",
					desc.KernelName(), desc.Diagnosability(), csr.KernelName(), csr.Diagnosability())
			}
			gotParts, gotErr := desc.Parts()
			wantParts, wantErr := csr.Parts()
			if !reflect.DeepEqual(gotParts, wantParts) || errText(gotErr) != errText(wantErr) {
				t.Fatalf("partitions differ: %d parts (%v) vs CSR %d parts (%v)",
					len(gotParts), gotErr, len(wantParts), wantErr)
			}
			if n <= 5 && wantErr == nil {
				t.Fatalf("Q%d unexpectedly has a partition", n)
			}
			// δ = 0 leaves nothing to diagnose: every call below must be
			// refused, with the twin's error text.
			refuseAll := csr.Diagnosability() == 0

			g := csr.Graph()
			rng := rand.New(rand.NewSource(int64(n)))
			for bound := 1; bound <= n; bound++ {
				hyps := []*bitset.Set{
					syndrome.RandomFaults(g.N(), min(bound, g.N()/2), rng),
					syndrome.ClusterFaults(g, int32(rng.Intn(g.N())), bound),
				}
				for _, F := range hyps {
					for _, b := range behaviors {
						opt := core.Options{FaultBound: bound}
						sGot, sWant := syndrome.NewLazy(F, b), syndrome.NewLazy(F, b)
						gotF, gotSt, gotErr := desc.DiagnoseOpts(sGot, opt)
						wantF, wantSt, wantErr := csr.DiagnoseOpts(sWant, opt)
						label := fmt.Sprintf("bound %d, %d faults, %s", bound, F.Count(), b.Name())
						checkSame(t, label, gotF, gotSt, gotErr, wantF, wantSt, wantErr)
						if refuseAll && wantErr == nil {
							t.Fatalf("%s: diagnosed at δ = 0", label)
						}
						if sGot.Lookups() != sWant.Lookups() {
							t.Fatalf("%s: %d look-ups, CSR %d", label, sGot.Lookups(), sWant.Lookups())
						}
					}
				}
			}

			hyps := []*bitset.Set{
				syndrome.RandomFaults(g.N(), min(n, g.N()/2), rng),
				syndrome.RandomFaults(g.N(), n/2, rng),
				syndrome.ClusterFaults(g, int32(g.N()-1), n),
			}
			for _, share := range []bool{false, true} {
				for _, cached := range []bool{false, true} {
					bopt := core.BatchOptions{Workers: 2, ShareHypotheses: share}
					boptCSR := bopt
					passes := 1
					if cached {
						// One cache per engine, or the second engine would
						// answer from the first one's work.
						bopt.Options.ResultCache = core.NewResultCache(64)
						boptCSR.Options.ResultCache = core.NewResultCache(64)
						passes = 2
					}
					for pass := 0; pass < passes; pass++ {
						var sGot, sWant []syndrome.Syndrome
						for _, F := range hyps {
							for _, b := range behaviors {
								sGot = append(sGot, syndrome.NewLazy(F, b))
								sWant = append(sWant, syndrome.NewLazy(F, b))
							}
						}
						got := desc.DiagnoseBatch(sGot, bopt)
						want := csr.DiagnoseBatch(sWant, boptCSR)
						for i := range want {
							label := fmt.Sprintf("share=%v cache=%v pass %d member %d", share, cached, pass, i)
							checkSame(t, label, got[i].Faults, &got[i].Stats, got[i].Err, want[i].Faults, &want[i].Stats, want[i].Err)
							if refuseAll && want[i].Err == nil {
								t.Fatalf("%s: diagnosed at δ = 0", label)
							}
							if sGot[i].Lookups() != sWant[i].Lookups() {
								t.Fatalf("%s: %d look-ups, CSR %d", label, sGot[i].Lookups(), sWant[i].Lookups())
							}
						}
					}
				}
			}
			if desc.Graph().Materialized() {
				t.Fatalf("served %s wrote its CSR", spec)
			}
		})
	}
}

// checkSame fails unless a diagnosis matches its CSR reference: same
// error text, and on success the same fault set and whole-struct Stats.
func checkSame(t *testing.T, label string, gotF *bitset.Set, gotSt *core.Stats, gotErr error, wantF *bitset.Set, wantSt *core.Stats, wantErr error) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %q, CSR %q", label, errText(gotErr), errText(wantErr))
	}
	if wantErr != nil {
		return
	}
	if !gotF.Equal(wantF) {
		t.Fatalf("%s: fault set %v, CSR %v", label, gotF.Members(), wantF.Members())
	}
	if *gotSt != *wantSt {
		t.Fatalf("%s: stats %+v, CSR %+v", label, *gotSt, *wantSt)
	}
}

// TestHypercubeSpellingsShareDescriptor pins that every spelling of Q12
// that differs only in case and Unicode spacing, with or without the
// "implicit:" prefix, reaches the one q:12 entry; the "hypercube:"
// alias binds its own. Every resident entry serves the generator set
// and has written no CSR.
func TestHypercubeSpellingsShareDescriptor(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	for _, spec := range []string{
		"q:12", "Q:12", " q:12 ", "q:\t12", "hypercube:\u00a012", "Q : 12",
		"q:12\n", "implicit:q:\u200912", "HyperCube :12",
	} {
		if err := srv.Preload(spec); err != nil {
			t.Fatalf("preload %q: %v", spec, err)
		}
	}
	if keys := srv.residentKeys(); !slices.Equal(keys, []string{"hypercube:12", "q:12"}) {
		t.Fatalf("resident keys %q; want [hypercube:12 q:12]", keys)
	}
	for _, key := range []string{"q:12", "hypercube:12"} {
		ent, err := srv.reg.get(key)
		if err != nil {
			t.Fatal(err)
		}
		binding, _ := adjacencyFootprint(ent.eng)
		materialized := ent.eng.Graph().Materialized()
		ent.release()
		if binding != "descriptor" || materialized {
			t.Fatalf("%s bound as %q, CSR written %v; want the descriptor binding and no CSR", key, binding, materialized)
		}
	}
}

// FuzzNormalizeKey pins the registry key against the parser: for every
// spec topology.Parse accepts, the key normalizeKey gives the spec, and
// the spec behind the "implicit:" prefix, parses to the same network
// (name, order, size and δ), and only the prefix reports an implicit
// request. Specs whose graph could be large are skipped: any integer
// argument beyond 12, or beyond 6 outside the hypercube names, whose
// orders grow as n! or k^n.
func FuzzNormalizeKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		name, args, _ := strings.Cut(spec, ":")
		limit := 6
		if name := strings.ToLower(name); name == "q" || name == "hypercube" {
			limit = 12
		}
		for _, a := range strings.Split(args, ",") {
			if v, err := strconv.Atoi(strings.TrimSpace(a)); err == nil && v > limit {
				t.Skip("large graph")
			}
		}
		nw, err := topology.Parse(spec)
		if err != nil {
			return
		}
		for _, s := range []string{spec, "implicit:" + spec} {
			key, implicit := normalizeKey(s)
			if implicit != (s != spec) {
				t.Fatalf("normalizeKey(%q) reports implicit %v", s, implicit)
			}
			got, err := topology.Parse(key)
			if err != nil {
				t.Fatalf("Parse(%q) is %s, but its key %q (from %q) does not parse: %v", spec, nw.Name(), key, s, err)
			}
			if got.Name() != nw.Name() || got.Graph().N() != nw.Graph().N() ||
				got.Graph().M() != nw.Graph().M() || got.Diagnosability() != nw.Diagnosability() {
				t.Fatalf("Parse(%q) is %s, but its key %q (from %q) parses to %s", spec, nw.Name(), key, s, got.Name())
			}
		}
	})
}

// TestDeltaZeroServed pins the served contract of the instances whose
// δ is 0 — no fault set is identifiable, so there is nothing to
// diagnose — the same for every family: /v1/diagnose answers 422 with
// "delta":0 whether the hypothesis is empty or not, and /v1/campaign
// streams every trial exact at f = 0 and refused beyond, with no silent
// misdiagnosis on any point.
func TestDeltaZeroServed(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const trials = 4
	for _, spec := range []string{"q:2", "cq:2", "tnq:2", "sq:2", "kary:3,1", "kary:4,1"} {
		t.Run(spec, func(t *testing.T) {
			for _, faults := range [][]int{{}, {1}} {
				status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: spec, Faults: faults})
				if status != http.StatusUnprocessableEntity || dr.Delta != 0 || dr.Error == "" {
					t.Fatalf("faults %v: status %d, delta %d, error %q; want 422 with delta 0", faults, status, dr.Delta, dr.Error)
				}
			}
			body, err := json.Marshal(CampaignRequest{Topology: spec, MinFaults: 0, MaxFaults: 2, Trials: trials})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("campaign status %d", resp.StatusCode)
			}
			var pts []CampaignPoint
			dec := json.NewDecoder(resp.Body)
			for {
				var p CampaignPoint
				if err := dec.Decode(&p); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				pts = append(pts, p)
			}
			want := []CampaignPoint{
				{Faults: 0, Trials: trials, Exact: trials, ExactRate: 1},
				{Faults: 1, Trials: trials, Refused: trials},
				{Faults: 2, Trials: trials, Refused: trials},
			}
			if !reflect.DeepEqual(pts, want) {
				t.Fatalf("campaign streamed %+v, want %+v", pts, want)
			}
		})
	}
}

// TestPaddedBindsWriteNoCSR pins that fq:7 and aq:9, whose δ+1
// candidates exist only by padding, are served from their generator set
// without writing a CSR: not by core.NewEngine, not by the full
// partition Parts derives, and not by a served Preload, so /metrics'
// "descriptor" label and byte count hold for them too.
func TestPaddedBindsWriteNoCSR(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	for _, spec := range []string{"fq:7", "aq:9"} {
		nw, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(nw)
		if eng.Graph().Materialized() {
			t.Fatalf("%s: the bind wrote the CSR", spec)
		}
		if _, err := eng.Parts(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if eng.Graph().Materialized() {
			t.Fatalf("%s: Parts wrote the CSR", spec)
		}
		if err := srv.Preload(spec); err != nil {
			t.Fatal(err)
		}
		ent, err := srv.reg.get(spec)
		if err != nil {
			t.Fatal(err)
		}
		binding, _ := adjacencyFootprint(ent.eng)
		materialized := ent.eng.Graph().Materialized()
		ent.release()
		if binding != "descriptor" || materialized {
			t.Fatalf("served %s bound as %q, CSR written %v; want the descriptor binding and no CSR", spec, binding, materialized)
		}
	}
}
