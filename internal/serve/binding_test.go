package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
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

// TestServedHypercubeMatchesCSR is the binding differential: the engine
// the server binds for q:n (descriptor-backed, no CSR) must be
// observationally identical to core.NewEngine(topology.NewHypercube(n))
// for n = 3..16 — same kernel, same partition, and per syndrome the same
// fault set, whole-struct Stats, look-up count and error text (Q3–Q5
// have no Theorem 1 partition and must refuse identically). Solo calls
// sweep every behaviour under every FaultBound 1..n; batches run with
// and without ShareHypotheses and a ResultCache, the cached ones twice
// so the second batch resumes stored hypotheses. Q2, whose δ is 0, is
// refused with an error naming that δ.
func TestServedHypercubeMatchesCSR(t *testing.T) {
	behaviors := syndrome.AllBehaviors(7)
	for n := 2; n <= 16; n++ {
		t.Run(fmt.Sprintf("Q%d", n), func(t *testing.T) {
			nw := topology.NewHypercube(n)
			csr := core.NewEngine(nw)
			desc, err := hypercubeEngine(n)
			if csr.Diagnosability() == 0 {
				if err == nil || !strings.Contains(err.Error(), "δ = 0") {
					t.Fatalf("bound with error %v, want a refusal naming δ = 0", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if desc.Graph() != nil {
				t.Fatal("served hypercube holds a CSR")
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

			g := nw.Graph()
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
							if sGot[i].Lookups() != sWant[i].Lookups() {
								t.Fatalf("%s: %d look-ups, CSR %d", label, sGot[i].Lookups(), sWant[i].Lookups())
							}
						}
					}
				}
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
// that differs only in case and Unicode spacing reaches the one q:12
// descriptor entry: none may fall through to topology.Parse, which
// trims every argument and would build a CSR under a second key.
func TestHypercubeSpellingsShareDescriptor(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	for _, spec := range []string{
		"q:12", "Q:12", " q:12 ", "q:\t12", "hypercube:\u00a012", "Q : 12",
		"q:12\n", "implicit:q:\u200912",
	} {
		if err := srv.Preload(spec); err != nil {
			t.Fatalf("preload %q: %v", spec, err)
		}
	}
	snap := srv.Snapshot()
	if len(snap.Engines) != 1 {
		keys := make([]string, len(snap.Engines))
		for i, es := range snap.Engines {
			keys[i] = fmt.Sprintf("%q (%s)", es.Key, es.Binding)
		}
		t.Fatalf("%d engines resident: %v; want the one q:12 entry", len(keys), keys)
	}
	if es := snap.Engines[0]; es.Key != "q:12" || es.Binding != "descriptor" {
		t.Fatalf("resident engine %q bound as %q; want q:12 bound as descriptor", es.Key, es.Binding)
	}
}

// FuzzNormalizeKey pins the registry's side of the descriptor
// guarantee: whenever topology.Parse reads a spec as a hypercube Q_n,
// normalizeKey folds it, with or without the "implicit:" prefix, to
// "q:<n>", the key bound from the XOR descriptor. Specs whose graph
// could be large are skipped: any integer argument beyond 12, or
// beyond 6 outside the hypercube names, whose orders grow as n! or k^n.
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
		h, ok := nw.(*topology.Hypercube)
		if !ok {
			return
		}
		want := "q:" + strconv.Itoa(h.Dim())
		for _, s := range []string{spec, "implicit:" + spec} {
			if got := normalizeKey(s); got != want {
				t.Fatalf("Parse(%q) is Q%d, but normalizeKey(%q) = %q, want %q", spec, h.Dim(), s, got, want)
			}
		}
	})
}
