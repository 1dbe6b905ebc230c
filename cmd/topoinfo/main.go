// Command topoinfo prints the structural and diagnosis metadata of an
// interconnection network: size, degree, claimed connectivity and
// diagnosability, the Theorem 1 partition it would use, and (for small
// instances, on request) exactly computed connectivity and
// diagnosability.
//
// Usage:
//
//	topoinfo -net cq:8
//	topoinfo -net q:4 -verify     # exact κ and δ (small graphs only)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"comparisondiag/internal/baseline"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/topology"
)

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

func main() {
	netSpec := flag.String("net", "q:8", "network spec (see topology.Parse)")
	verify := flag.Bool("verify", false, "compute exact κ (≤ ~3000 nodes) and δ (≤ 64 nodes)")
	list := flag.Bool("list", false, "list the supported families and exit")
	flag.Parse()

	if *list {
		fmt.Printf("%-8s %-32s %-22s %-10s %s\n", "spec", "family", "params", "δ", "example")
		for _, fam := range topology.Catalog() {
			fmt.Printf("%-8s %-32s %-22s %-10s %s\n",
				fam.Spec, fam.Name, fam.Params, fam.DeltaFormula, fam.Example)
		}
		return
	}

	nw, err := topology.Parse(*netSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	g := nw.Graph()
	fmt.Printf("network         %s\n", nw.Name())
	fmt.Printf("nodes           %d\n", g.N())
	fmt.Printf("edges           %d\n", g.M())
	fmt.Printf("degree          min %d, max %d\n", g.MinDegree(), g.MaxDegree())
	fmt.Printf("connectivity κ  %d (literature)\n", nw.Connectivity())
	fmt.Printf("diagnosable δ   %d (declared)\n", nw.Diagnosability())

	// Algebraic structure: what the family declares (or a from-scratch
	// probe finds), and which final-pass kernel an engine binds from it.
	var declared graph.CayleyDescriptor
	if cs, ok := nw.(topology.CayleyStructured); ok && cs.CayleyStructure() != nil {
		declared = cs.CayleyStructure()
		fmt.Printf("structure       %s (declared)\n", declared)
	} else if desc, ok := graph.DetectXORCayley(g); ok {
		fmt.Printf("structure       %s (detected)\n", desc)
	} else {
		fmt.Println("structure       none (node-dependent edge rule)")
	}
	fmt.Printf("engine kernel   %s\n", core.NewEngine(nw).KernelName())

	// Adjacency memory model: what the CSR arrays cost at this size, and
	// what an implicit (descriptor-bound, see core.NewCayleyEngine and
	// docs/scale.md) engine would hold instead.
	csrBytes := graph.CSRFootprintBytes(g.N(), g.M())
	fmt.Printf("csr memory      %s (offset + target arrays)\n", fmtBytes(csrBytes))
	if declared != nil {
		if ca, err := graph.NewCayleyAdjacency(declared); err == nil {
			fmt.Printf("implicit memory %s (descriptor only, %.0fx below CSR; node-count independent)\n",
				fmtBytes(ca.FootprintBytes()), float64(csrBytes)/float64(ca.FootprintBytes()))
		}
	}
	// Serving-side scratch: the dense per-node diagnosis arrays a worker
	// borrows for each job (see core.Scratch) — an engine's memory is
	// its adjacency at rest, plus this figure per busy worker.
	fmt.Printf("scratch memory  %s per busy worker (dense per-node arrays; none while idle)\n",
		fmtBytes(core.ScratchFootprintBytes(g.N())))

	d := nw.Diagnosability()
	parts, err := nw.Parts(d+1, d+1)
	switch {
	case errors.Is(err, topology.ErrNoPartition):
		fmt.Printf("partition       infeasible: N=%d < (δ+1)²=%d or granularities misaligned (gap G3)\n",
			g.N(), (d+1)*(d+1))
	case err != nil:
		fmt.Printf("partition       error: %v\n", err)
	default:
		minSz, maxSz := len(parts[0].Nodes), len(parts[0].Nodes)
		for _, p := range parts {
			if len(p.Nodes) < minSz {
				minSz = len(p.Nodes)
			}
			if len(p.Nodes) > maxSz {
				maxSz = len(p.Nodes)
			}
		}
		fmt.Printf("partition       %d parts, sizes %d..%d (need > δ=%d each, > δ parts)\n",
			len(parts), minSz, maxSz, d)
	}

	if *verify {
		if g.N() <= 3000 {
			kappa := g.VertexConnectivity()
			match := "agrees"
			if kappa != nw.Connectivity() {
				match = "DISAGREES with literature"
			}
			fmt.Printf("exact κ         %d (%s)\n", kappa, match)
		} else {
			fmt.Println("exact κ         skipped (too large)")
		}
		if g.N() <= 64 {
			res, err := baseline.Diagnosability(g, g.MinDegree()+1)
			if err != nil {
				fmt.Printf("exact δ         error: %v\n", err)
			} else {
				match := "agrees"
				if res.Delta != nw.Diagnosability() {
					match = "DISAGREES with the declared δ"
				}
				fmt.Printf("exact δ         %d (%s)\n", res.Delta, match)
				if res.Delta < nw.Diagnosability() {
					fmt.Printf("witness         F1=%#x F2=%#x are indistinguishable\n", res.Witness1, res.Witness2)
				}
			}
		} else {
			fmt.Println("exact δ         skipped (needs ≤ 64 nodes)")
		}
	}
}
