package main

import (
	"fmt"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// replayer re-diagnoses syndromes a workload produced on an engine bound
// to the same spec, timing the whole DiagnoseOpts call and then the part
// scan alone (core.CertifyPart over the parts the diagnosis scanned).
// The scan's time and look-ups are the certification phase; the rest of
// the call is the final Set_Builder pass. This attributes engine time
// from outside the engine, by calling its public functions.
type replayer struct {
	eng   *core.Engine
	parts []topology.Part
	mask  *bitset.Set
	sc    *core.Scratch

	diag, cert, final     []time.Duration
	finalNs               float64
	certLookups, finalLks int64
	scanned               int64
}

func newReplayer(eng *core.Engine) (*replayer, error) {
	parts, err := eng.Parts()
	if err != nil {
		return nil, err
	}
	return &replayer{eng: eng, parts: parts, mask: bitset.New(eng.Adjacency().N()), sc: eng.AcquireScratch()}, nil
}

func (r *replayer) close() { r.eng.ReleaseScratch(r.sc) }

// replay re-diagnoses the syndrome of fault set want under beh, checks
// the answer and that the scan alone spends exactly the certification
// look-ups the diagnosis reported, and records spans as children of
// request req when tr is non-nil. It returns the diagnosis Stats.
func (r *replayer) replay(want []int32, beh syndrome.Behavior, tr *tracer, req int64) (core.Stats, error) {
	n := r.eng.Adjacency().N()
	F := bitset.New(n)
	for _, v := range want {
		F.Add(int(v))
	}
	s := syndrome.NewLazy(F, beh)
	d0 := time.Now()
	got, st, err := r.eng.DiagnoseOpts(s, core.Options{Scratch: r.sc})
	diag := time.Since(d0)
	if err != nil {
		return core.Stats{}, err
	}
	if !got.Equal(F) {
		return core.Stats{}, errMismatch
	}
	stats := *st

	scan := syndrome.NewLazy(F, beh)
	c0 := time.Now()
	certified := -1
	for k := 0; k < stats.PartsScanned && certified < 0; k++ {
		nodes := r.parts[k].Nodes
		for _, v := range nodes {
			r.mask.Add(int(v))
		}
		if core.CertifyPart(r.eng.Adjacency(), scan, nodes, r.mask) {
			certified = k
		}
		for _, v := range nodes {
			r.mask.Remove(int(v))
		}
	}
	cert := time.Since(c0)
	switch {
	case certified != stats.CertifiedPart:
		return stats, fmt.Errorf("scan certified part %d, diagnosis part %d", certified, stats.CertifiedPart)
	case scan.Lookups() != stats.CertLookups:
		return stats, fmt.Errorf("scan spent %d look-ups, diagnosis reported %d for certification", scan.Lookups(), stats.CertLookups)
	}

	final := diag - cert
	r.diag = append(r.diag, diag)
	r.cert = append(r.cert, cert)
	r.final = append(r.final, final)
	r.finalNs += float64(final)
	r.certLookups += stats.CertLookups
	r.finalLks += stats.FinalLookups
	r.scanned += int64(stats.PartsScanned)
	if tr != nil {
		base := tr.now() - int64(diag) - int64(cert)
		tr.child(req, "core.diagnose", base, base+int64(diag))
		tr.child(req, "core.final", base+int64(cert), base+int64(diag))
		tr.child(req, "core.cert", base+int64(diag), base+int64(diag)+int64(cert))
	}
	return stats, nil
}

// report fills the core.* per-layer metrics.
func (r *replayer) report(m map[string]float64) {
	k := float64(len(r.diag))
	m["core.diagnose_p50_us"] = usP50(r.diag)
	m["core.cert_p50_us"] = usP50(r.cert)
	m["core.final_p50_us"] = usP50(r.final)
	m["core.final_ns_per_lookup"] = ratio(r.finalNs, float64(r.finalLks))
	m["core.cert_lookups_per_diag"] = ratio(float64(r.certLookups), k)
	m["core.final_lookups_per_diag"] = ratio(float64(r.finalLks), k)
	m["core.parts_scanned_mean"] = ratio(float64(r.scanned), k)
}

func usP50(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return percentile(xs, 50)
}

// bindTimes parses spec and binds a CSR engine reps times and returns
// the last engine with the median parse and bind times.
func bindTimes(spec string, reps int) (*core.Engine, time.Duration, time.Duration, error) {
	var eng *core.Engine
	var parse, bind []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		nw, err := topology.Parse(spec)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		eng = core.NewEngine(nw)
		t2 := time.Now()
		parse = append(parse, float64(t1.Sub(t0)))
		bind = append(bind, float64(t2.Sub(t1)))
	}
	return eng, time.Duration(percentile(parse, 50)), time.Duration(percentile(bind, 50)), nil
}
