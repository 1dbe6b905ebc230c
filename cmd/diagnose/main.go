// Command diagnose builds an interconnection network, injects a fault
// set, generates an MM-model syndrome and runs the paper's diagnosis
// algorithm, reporting the result and its cost profile.
//
// Usage:
//
//	diagnose -net q:10 -faults 10 -behavior mimic -seed 42
//	diagnose -net star:7 -faults 6 -pattern cluster
//	diagnose -net nkstar:6,2 -faults 3          # verification fallback
//	diagnose -net q:14 -trials 64 -workers 4    # batch via the runtime
//	diagnose -net q:14 -trials 64 -cache 256    # + result cache stats
//	diagnose -net q:10 -flap 3                  # 3 remove-restore cycles
//	diagnose -net q:10 -churn-nodes 5,17        # remove exactly those nodes
//	diagnose -net q:10 -flap 3 -churn-nodes 5,17    # cycle an explicit set
//
// The churn-mode flags are mutually exclusive where they contradict:
// -churn picks random victims while -churn-nodes names them, and
// -churn's one-shot removal contradicts -flap's remove-restore cycles,
// so either combination is a usage error.
//
// Patterns: random (default), cluster (BFS ball around node 0),
// neighborhood (the extremal N(center) configuration).
//
// With -trials > 1 the command binds a core.Engine and a persistent
// campaign.Runtime to the network once, generates that many independent
// syndromes, diagnoses them on the runtime's worker pool and reports
// aggregate throughput (diagnoses/sec), result-cache hit rates (-cache)
// and the per-worker trial distribution beside the per-syndrome
// verdicts. -workers sizes that pool. -share additionally groups
// syndromes by fault hypothesis so each group's part certification and
// behaviour-independent final-pass prefix run once (see
// docs/runtime.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

func main() {
	netSpec := flag.String("net", "q:10", "network spec (see topology.Parse)")
	faults := flag.Int("faults", -1, "number of faults to inject (-1 = δ)")
	behaviorName := flag.String("behavior", "mimic", "faulty tester behaviour: allzero|allone|mimic|inverted|random")
	pattern := flag.String("pattern", "random", "fault placement: random|cluster|neighborhood")
	seed := flag.Int64("seed", 1, "PRNG seed")
	workers := flag.Int("workers", 1, "with -trials > 1 or churn: the runtime worker-pool size (-1 = GOMAXPROCS; clamped to it)")
	bound := flag.Int("bound", 0, "known fault bound t < δ (0 = use δ)")
	paper := flag.Bool("paper-certificate", false, "use the paper's literal contributor certificate (see gap G1)")
	trials := flag.Int("trials", 1, "number of syndromes to diagnose; > 1 serves them through a persistent campaign.Runtime")
	cacheCap := flag.Int("cache", 0, "with -trials > 1: result-cache capacity (0 = off); repeated syndromes replay without diagnosis")
	share := flag.Bool("share", false, "with -trials > 1: share part certification and the behaviour-independent final-pass prefix across syndromes of one fault hypothesis")
	churn := flag.Int("churn", 0, "remove this many random nodes and rebind the engine before diagnosing (degraded mode; routes through the engine even for one trial; contradicts -churn-nodes and -flap)")
	churnNodes := flag.String("churn-nodes", "", "comma-separated node ids to remove (one-shot explicit churn), or the set each -flap cycle removes; contradicts -churn")
	flap := flag.Int("flap", 0, "run this many remove-restore cycles before serving: each cycle removes nodes (the -churn-nodes list, default 4 random picks), rebinds, restores them and rebinds again, reporting both rebinds; contradicts -churn")
	flag.Parse()

	// Reject nonsense before any work: a zero or negative trial count, a
	// zero worker pool (0 workers can serve nothing; -1 means
	// GOMAXPROCS), or a negative churn amount.
	if *trials <= 0 {
		fmt.Fprintf(os.Stderr, "usage: -trials must be >= 1, got %d\n", *trials)
		os.Exit(2)
	}
	if *workers == 0 || *workers < -1 {
		fmt.Fprintf(os.Stderr, "usage: -workers must be >= 1 or -1 for GOMAXPROCS, got %d\n", *workers)
		os.Exit(2)
	}
	if *churn < 0 {
		fmt.Fprintf(os.Stderr, "usage: -churn must be >= 0, got %d\n", *churn)
		os.Exit(2)
	}
	if *flap < 0 {
		fmt.Fprintf(os.Stderr, "usage: -flap must be >= 0, got %d\n", *flap)
		os.Exit(2)
	}
	// The churn-mode flags must name exactly one removal mode; a count
	// AND an explicit list (or a one-shot removal and a cycle count) in
	// one invocation is contradictory, and silently honouring one of
	// them diagnoses a network the user didn't ask for.
	if err := churnModeError(*churn, *flap, *churnNodes); err != nil {
		fmt.Fprintf(os.Stderr, "usage: %v\n", err)
		os.Exit(2)
	}
	// Parse -churn-nodes before touching any graph: a malformed or
	// out-of-range id is a usage error here, not a panic deep inside
	// graph.Remove.
	var churnList []int32
	if *churnNodes != "" {
		for _, fld := range strings.Split(*churnNodes, ",") {
			fld = strings.TrimSpace(fld)
			id, err := strconv.Atoi(fld)
			if err != nil {
				fmt.Fprintf(os.Stderr, "usage: bad -churn-nodes entry %q: %v\n", fld, err)
				os.Exit(2)
			}
			churnList = append(churnList, int32(id))
		}
	}
	switch strings.ToLower(*pattern) {
	case "random", "cluster", "neighborhood":
	default:
		fmt.Fprintf(os.Stderr, "usage: unknown pattern %q (want random|cluster|neighborhood)\n", *pattern)
		os.Exit(2)
	}

	nw, err := topology.Parse(*netSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "usage: bad -net spec: %v\n", err)
		os.Exit(2)
	}
	g := nw.Graph()
	delta := nw.Diagnosability()
	for _, u := range churnList {
		if u < 0 || int(u) >= g.N() {
			fmt.Fprintf(os.Stderr, "usage: -churn-nodes id %d out of range for %s (N=%d)\n", u, nw.Name(), g.N())
			os.Exit(2)
		}
	}
	nFaults := *faults
	if nFaults < 0 {
		nFaults = delta
	}
	if nFaults > delta {
		fmt.Fprintf(os.Stderr, "warning: %d faults exceed δ = %d; diagnosis is not guaranteed\n", nFaults, delta)
	}

	// makeFaults builds trial i's fault set on graph fg with n faults —
	// parameterised because a churned engine serves a smaller graph
	// under a smaller bound than the network it was bound to. Trial 0
	// reproduces the single-diagnosis placements exactly (cluster around
	// node 0, neighbourhood of the middle node); later batch trials move
	// the centre so every syndrome is a distinct case.
	makeFaults := func(fg *graph.Graph, n, i int) *bitset.Set {
		switch strings.ToLower(*pattern) {
		case "cluster":
			return syndrome.ClusterFaults(fg, int32(i%fg.N()), n)
		case "neighborhood":
			return syndrome.NeighborhoodFaults(fg, int32((fg.N()/2+i)%fg.N()), n)
		default: // "random", validated above
			return syndrome.RandomFaults(fg.N(), n, rand.New(rand.NewSource(*seed+int64(i))))
		}
	}

	behavior, err := syndrome.ParseBehavior(*behaviorName, uint64(*seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "usage: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("network     %s: N=%d, M=%d, Δ=%d, κ=%d, δ=%d\n",
		nw.Name(), g.N(), g.M(), g.MaxDegree(), nw.Connectivity(), delta)

	if *trials > 1 || *churn > 0 || *flap > 0 || len(churnList) > 0 {
		opt := core.Options{FaultBound: *bound}
		if *paper {
			opt.Strategy = core.StrategyPaper
		}
		if *cacheCap > 0 {
			opt.ResultCache = core.NewResultCache(*cacheCap)
		}
		runBatch(nw, behavior, makeFaults, *trials, *workers, *churn, *flap, churnList, *seed, nFaults, opt, *share)
		return
	}

	F := makeFaults(g, nFaults, 0)
	fmt.Printf("injected    %d faults (%s, %s testers): %v\n", F.Count(), *pattern, behavior.Name(), F)

	opt := core.Options{FaultBound: *bound}
	if *paper {
		opt.Strategy = core.StrategyPaper
	}
	s := syndrome.NewLazy(F, behavior)
	start := time.Now()
	got, stats, err := core.DiagnoseOpts(nw, s, opt)
	elapsed := time.Since(start)

	if errors.Is(err, topology.ErrNoPartition) {
		fmt.Println("partition   infeasible for Theorem 1 — falling back to verification")
		start = time.Now()
		got, err = core.DiagnoseWithVerification(g, delta, s)
		elapsed = time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diagnosis failed:", err)
			os.Exit(1)
		}
		fmt.Printf("diagnosed   %v in %v (verification fallback)\n", got, elapsed)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "diagnosis failed:", err)
		os.Exit(1)
	} else {
		fmt.Printf("diagnosed   %v in %v\n", got, elapsed)
		fmt.Printf("cost        parts scanned=%d, healthy set=%d, rounds=%d\n",
			stats.PartsScanned, stats.HealthyCount, stats.Rounds)
		fmt.Printf("lookups     cert=%d final=%d total=%d (full table would be %d)\n",
			stats.CertLookups, stats.FinalLookups, stats.TotalLookups, syndrome.TableSize(g))
	}

	if got.Equal(F) {
		fmt.Println("verdict     EXACT — diagnosed set equals injected set")
	} else {
		fmt.Println("verdict     MISMATCH")
		os.Exit(1)
	}
}

// churnModeError rejects contradictory churn-mode flag combinations.
// Exactly one removal mode may drive a run: -churn k (one-shot, k
// random victims), -churn-nodes list (one-shot, exactly those nodes),
// -flap n (n remove-restore cycles of 4 random picks), or -flap n with
// -churn-nodes (cycles of the explicit set). -churn with -churn-nodes
// gives two different victim sets, and -churn with -flap two different
// removal shapes — honouring either silently would diagnose a network
// the user didn't ask for.
func churnModeError(churn, flap int, churnNodes string) error {
	if churn > 0 && churnNodes != "" {
		return errors.New("-churn picks random victims but -churn-nodes names them; drop -churn to remove exactly the listed nodes")
	}
	if churn > 0 && flap > 0 {
		return errors.New("-churn (one-shot removal) contradicts -flap (remove-restore cycles); use -flap with -churn-nodes to control the cycled set")
	}
	return nil
}

// runBatch binds an Engine and a persistent campaign.Runtime to the network, optionally churns
// the engine (remove nodes + incremental rebind) or flaps it
// (remove-restore cycles, both rebinds reported) first, diagnoses
// `trials` independent syndromes through the runtime's worker pool and
// reports aggregate throughput, cache effectiveness, degraded-mode
// status and the worker-pool trial distribution.
func runBatch(nw topology.Network, behavior syndrome.Behavior, makeFaults func(*graph.Graph, int, int) *bitset.Set, trials, workers, churn, flap int, churnList []int32, seed int64, nFaults int, opt core.Options, share bool) {
	eng := core.NewEngine(nw)
	if err := eng.PartsErr(); err != nil {
		fmt.Fprintln(os.Stderr, "batch mode needs a Theorem 1 partition:", err)
		os.Exit(1)
	}
	var caches []*core.ResultCache
	if opt.ResultCache != nil {
		caches = append(caches, opt.ResultCache)
	}
	rng := rand.New(rand.NewSource(seed))
	// pickNodes draws k distinct nodes of g, or hands back the explicit
	// -churn-nodes list (already range-checked against the full network;
	// re-checked here because a churned engine serves a smaller graph).
	pickNodes := func(g *graph.Graph, k int) []int32 {
		if churnList != nil {
			for _, u := range churnList {
				if int(u) >= g.N() {
					fmt.Fprintf(os.Stderr, "usage: -churn-nodes id %d out of range for the current %d-node graph\n", u, g.N())
					os.Exit(2)
				}
			}
			return churnList
		}
		picked := make(map[int32]bool, k)
		gone := make([]int32, 0, k)
		for len(gone) < k {
			u := int32(rng.Intn(g.N()))
			if !picked[u] {
				picked[u] = true
				gone = append(gone, u)
			}
		}
		return gone
	}
	if flap > 0 {
		// -churn and -flap are mutually exclusive (churnModeError), so a
		// cycle removes the explicit -churn-nodes list or 4 random picks.
		size := len(churnList)
		if size == 0 {
			size = 4
		}
		if size >= eng.Graph().N() {
			fmt.Fprintf(os.Stderr, "usage: a flap cycle of %d nodes would remove the whole %d-node network\n", size, eng.Graph().N())
			os.Exit(2)
		}
		for cycle := 1; cycle <= flap; cycle++ {
			gone := pickNodes(eng.Graph(), size)
			rr := eng.Graph().Remove(gone, nil)
			repDown, err := eng.Rebind(rr, caches...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flap cycle %d: removal rebind failed: %v\n", cycle, err)
				os.Exit(1)
			}
			fmt.Printf("flap %d/%d    down: %s\n", cycle, flap, repDown)
			repUp, err := eng.Rebind(graph.Restore(rr, gone, nil), caches...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flap cycle %d: growth rebind failed: %v\n", cycle, err)
				os.Exit(1)
			}
			fmt.Printf("flap %d/%d    up:   %s\n", cycle, flap, repUp)
		}
		if eng.Degraded() {
			fmt.Printf("flap        %d cycles complete: engine still degraded (δ′=%d)\n", flap, eng.Diagnosability())
		} else {
			fmt.Printf("flap        %d cycles complete: engine recovered — δ=%d, kernel=%s\n", flap, eng.Diagnosability(), eng.KernelName())
		}
	} else if churn > 0 || churnList != nil {
		g := eng.Graph()
		removeCount := churn
		if churnList != nil {
			removeCount = len(churnList)
		}
		if removeCount >= g.N() {
			fmt.Fprintf(os.Stderr, "usage: removing %d nodes would remove the whole %d-node network\n", removeCount, g.N())
			os.Exit(2)
		}
		gone := pickNodes(g, removeCount)
		rep, err := eng.Rebind(g.RemoveNodes(gone), caches...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rebind failed:", err)
			os.Exit(1)
		}
		fmt.Printf("churn       %s\n", rep)
	}
	rt := campaign.NewRuntime(eng, workers)
	defer rt.Close()
	g := eng.Graph()
	delta := eng.Diagnosability()
	if nFaults > delta {
		fmt.Fprintf(os.Stderr, "warning: clamping %d faults to the engine's bound δ=%d\n", nFaults, delta)
		nFaults = delta
	}
	syns := make([]syndrome.Syndrome, trials)
	faults := make([]*bitset.Set, trials)
	for i := range syns {
		faults[i] = makeFaults(g, nFaults, i)
		syns[i] = syndrome.NewLazy(faults[i], behavior)
	}
	fmt.Printf("batch       %d syndromes, %d faults each (%s testers), %d workers, kernel=%s\n",
		trials, faults[0].Count(), behavior.Name(), rt.Workers(), eng.KernelName())

	start := time.Now()
	results := rt.DiagnoseBatch(syns, core.BatchOptions{ShareHypotheses: share, Options: opt})
	elapsed := time.Since(start)

	exact, failed := 0, 0
	var lookups, sharedPrefix int64
	for i, r := range results {
		switch {
		case r.Err != nil:
			fmt.Fprintf(os.Stderr, "syndrome %d: %v\n", i, r.Err)
			failed++
		case !r.Faults.Equal(faults[i]):
			fmt.Fprintf(os.Stderr, "syndrome %d: MISMATCH\n", i)
			failed++
		default:
			exact++
			lookups += r.Stats.TotalLookups
			sharedPrefix += r.Stats.SharedFinalLookups
		}
	}
	perDiag := elapsed / time.Duration(trials)
	fmt.Printf("throughput  %v total, %v/diagnosis, %.0f diagnoses/sec\n",
		elapsed, perDiag, float64(trials)/elapsed.Seconds())
	if exact > 0 {
		fmt.Printf("lookups     avg %d per diagnosis\n", lookups/int64(exact))
	}
	if sharedPrefix > 0 {
		fmt.Printf("shared      %d final-prefix look-ups adopted from group representatives\n", sharedPrefix)
	}
	if opt.ResultCache != nil {
		cs := opt.ResultCache.Stats()
		fmt.Printf("cache       %d/%d hits (%.1f%%), %d entries (cap %d), %d evictions\n",
			cs.Hits, cs.Hits+cs.Misses, 100*cs.HitRate(), cs.Entries, cs.Capacity, cs.Evictions)
	}
	if eng.Degraded() {
		fmt.Printf("degraded    engine serves the surviving component under δ′=%d; results are stamped Stats.Degraded\n",
			eng.Diagnosability())
	}
	rs := rt.Stats()
	fmt.Printf("runtime     %d workers, %d jobs, trials/worker %v\n", rs.Workers, rs.Jobs, rs.Trials)
	fmt.Printf("verdict     %d exact, %d failed\n", exact, failed)
	if failed > 0 {
		os.Exit(1)
	}
}
