package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// postDiagnose fires one /v1/diagnose request and decodes the reply.
func postDiagnose(t *testing.T, url string, req DiagnoseRequest) (int, DiagnoseResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var dr DiagnoseResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decode (%d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, dr
}

// soloDiagnose runs the reference path: a fresh engine, one Diagnose.
func soloDiagnose(t *testing.T, spec string, faults *bitset.Set, b syndrome.Behavior) (*bitset.Set, *core.Stats) {
	t.Helper()
	nw, err := topology.Parse(spec)
	if err != nil {
		t.Fatalf("parse %s: %v", spec, err)
	}
	eng := core.NewEngine(nw)
	got, stats, err := eng.Diagnose(syndrome.NewLazy(faults, b))
	if err != nil {
		t.Fatalf("solo diagnose: %v", err)
	}
	return got, stats
}

func equalInts(a []int, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkBitIdentical pins the served response against the solo
// reference: the fault set and every Stats field solo Diagnose
// defines, with the shared-accounting contracts (PR 4/5) for the
// fields batching redistributes — members of a certification group
// report Cert 0 with the group scan copied, and shared-prefix members
// split solo's FinalLookups into Final + SharedFinal exactly.
func checkBitIdentical(t *testing.T, label string, dr DiagnoseResponse, soloF *bitset.Set, solo *core.Stats) {
	t.Helper()
	if !equalInts(dr.Faults, soloF.Members()) {
		t.Errorf("%s: faults = %v, solo = %v", label, dr.Faults, soloF.Members())
	}
	if dr.Delta != solo.Delta || dr.Seed != solo.Seed || dr.Rounds != solo.Rounds ||
		dr.Healthy != solo.HealthyCount || dr.FaultCount != solo.FaultCount ||
		dr.PartsScanned != solo.PartsScanned || dr.CertifiedPart != solo.CertifiedPart {
		t.Errorf("%s: cost fields diverge from solo: got Δ=%d seed=%d rounds=%d healthy=%d faults=%d parts=%d cert=%d, solo Δ=%d seed=%d rounds=%d healthy=%d faults=%d parts=%d cert=%d",
			label, dr.Delta, dr.Seed, dr.Rounds, dr.Healthy, dr.FaultCount, dr.PartsScanned, dr.CertifiedPart,
			solo.Delta, solo.Seed, solo.Rounds, solo.HealthyCount, solo.FaultCount, solo.PartsScanned, solo.CertifiedPart)
	}
	if got := dr.Lookups.Final + dr.Lookups.SharedFinal; got != solo.FinalLookups {
		t.Errorf("%s: final %d + shared %d = %d, solo final = %d",
			label, dr.Lookups.Final, dr.Lookups.SharedFinal, got, solo.FinalLookups)
	}
	if dr.Lookups.Cert > 0 && dr.Lookups.Cert != solo.CertLookups {
		t.Errorf("%s: cert = %d, solo cert = %d", label, dr.Lookups.Cert, solo.CertLookups)
	}
	if dr.Lookups.Cert == solo.CertLookups && dr.Lookups.SharedFinal == 0 &&
		dr.Lookups.Total != solo.TotalLookups {
		t.Errorf("%s: canonical response but total = %d, solo = %d",
			label, dr.Lookups.Total, solo.TotalLookups)
	}
}

// TestServedCoalescedBitIdentical is the tentpole pin: N concurrent
// clients with overlapping hypotheses are coalesced into one grouped
// batch (width > 1 observed) and every response is bit-identical to a
// solo Engine.Diagnose of the same request; identical concurrent
// requests share one diagnosis. A second identical round exercises the
// warm result cache and must keep the same answers.
func TestServedCoalescedBitIdentical(t *testing.T) {
	const spec = "q:8"
	behaviors := []syndrome.Behavior{syndrome.Mimic{}, syndrome.AllZero{}, syndrome.AllOne{}, syndrome.Inverted{}}
	rng := rand.New(rand.NewSource(41))
	var hyps []*bitset.Set
	for h := 0; h < 3; h++ {
		hyps = append(hyps, syndrome.RandomFaults(256, 4+2*h, rng))
	}
	unique := len(hyps) * len(behaviors) // 12

	srv := New(Config{
		Window:   5 * time.Second, // fallback only; MaxBatch triggers the flush
		MaxBatch: unique,
		Workers:  2,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Solo references, computed once up front.
	type ref struct {
		faults *bitset.Set
		stats  *core.Stats
	}
	refs := make(map[string]ref)
	for hi, F := range hyps {
		for _, b := range behaviors {
			got, stats := soloDiagnose(t, spec, F, b)
			refs[fmt.Sprintf("%d/%s", hi, b.Name())] = ref{faults: got.Clone(), stats: stats}
		}
	}

	reqFor := func(hi int, b syndrome.Behavior) DiagnoseRequest {
		return DiagnoseRequest{Topology: spec, Faults: hyps[hi].Members(), Behavior: b.Name()}
	}

	round := func(roundName string, dups int) {
		var wg sync.WaitGroup
		type result struct {
			label  string
			status int
			dr     DiagnoseResponse
		}
		results := make(chan result, unique+dups)
		// Fire the duplicates of (hyp 0, mimic) first and wait until all
		// of them are pending, so the dedup group is fully assembled
		// before the batch can possibly flush.
		for d := 0; d < dups; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, dr := postDiagnose(t, ts.URL, reqFor(0, syndrome.Mimic{}))
				results <- result{"0/mimic(dup)", status, dr}
			}()
		}
		if dups > 0 {
			deadline := time.Now().Add(5 * time.Second)
			for srv.Snapshot().PendingRequests < int64(dups) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: duplicates never became pending", roundName)
				}
				time.Sleep(time.Millisecond)
			}
		}
		first := 0
		if dups > 0 {
			first = 1 // (hyp 0, mimic) is already pending
		}
		launched := 0
		for hi := range hyps {
			for bi, b := range behaviors {
				if hi == 0 && bi == 0 && first == 1 {
					continue
				}
				launched++
				wg.Add(1)
				go func(hi int, b syndrome.Behavior) {
					defer wg.Done()
					status, dr := postDiagnose(t, ts.URL, reqFor(hi, b))
					results <- result{fmt.Sprintf("%d/%s", hi, b.Name()), status, dr}
				}(hi, b)
			}
		}
		wg.Wait()
		close(results)
		for r := range results {
			if r.status != http.StatusOK {
				t.Fatalf("%s %s: status %d (%s)", roundName, r.label, r.status, r.dr.Error)
			}
			key := strings.TrimSuffix(r.label, "(dup)")
			ref := refs[key]
			checkBitIdentical(t, roundName+" "+r.label, r.dr, ref.faults, ref.stats)
			if r.dr.BatchWidth != unique {
				t.Errorf("%s %s: batch width = %d, want %d", roundName, r.label, r.dr.BatchWidth, unique)
			}
			// The first duplicate to arrive is the group's original, so
			// dups submissions make a group of dups waiters.
			wantWaiters := 1
			if strings.HasSuffix(r.label, "(dup)") || (key == "0/mimic" && dups > 0) {
				wantWaiters = dups
			}
			if r.dr.Waiters != wantWaiters {
				t.Errorf("%s %s: waiters = %d, want %d", roundName, r.label, r.dr.Waiters, wantWaiters)
			}
		}
	}

	round("round1", 4)
	snap := srv.Snapshot()
	if snap.MaxBatchWidth != int64(unique) {
		t.Errorf("max batch width = %d, want %d", snap.MaxBatchWidth, unique)
	}
	if snap.CoalescedRequests == 0 {
		t.Error("no coalesced requests counted")
	}
	if snap.DedupHits != 3 {
		t.Errorf("dedup hits = %d, want 3", snap.DedupHits)
	}

	// Round 2: same traffic against the warm cache. Representatives now
	// replay canonical outcomes from the cache; the answers must not
	// move.
	round("round2", 0)
	snap = srv.Snapshot()
	if len(snap.Engines) != 1 || !snap.Engines[0].HasCache {
		t.Fatalf("expected one cached engine in the registry, got %+v", snap.Engines)
	}
	if snap.Engines[0].Cache.Hits == 0 {
		t.Error("round 2 produced no cache hits")
	}
	if snap.Engines[0].Cache.HitRate() <= 0 {
		t.Error("cache hit rate not positive after a warm round")
	}
	if snap.SharedFinalLookups == 0 {
		t.Error("no shared-final savings counted across grouped batches")
	}
}

// TestServedHypothesisMemo pins cross-window sharing: two width-1
// requests in separate coalescing windows name one hypothesis under
// different random seeds. The first is diagnosed in full and stores the
// hypothesis's scan verdict and final prefix in the engine's result
// cache; the second resumes from them, so its look-up bill is a member
// row — no certification, only the suffix past the stored checkpoint —
// and the server's look-up counter grows by exactly that suffix.
func TestServedHypothesisMemo(t *testing.T) {
	const spec = "q:8"
	srv := New(Config{Window: time.Millisecond, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	nw, err := topology.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Faults clustered far from node 0, where part 0 (and so the final
	// pass) starts: a long behaviour-independent prefix.
	F := syndrome.ClusterFaults(nw.Graph(), 255, 6)
	post := func(seed uint64) DiagnoseResponse {
		t.Helper()
		status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: spec, Faults: F.Members(), Behavior: "random", Seed: seed})
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, status, dr.Error)
		}
		if dr.BatchWidth != 1 {
			t.Fatalf("seed %d: batch width %d, want 1 (separate windows)", seed, dr.BatchWidth)
		}
		soloF, solo := soloDiagnose(t, spec, F, syndrome.Random{Seed: seed})
		checkBitIdentical(t, fmt.Sprintf("seed %d", seed), dr, soloF, solo)
		return dr
	}

	first := post(1)
	if first.Lookups.Cert == 0 || first.Lookups.SharedFinal != 0 {
		t.Fatalf("first request bill %+v, want a full diagnosis", first.Lookups)
	}
	before := srv.Snapshot()
	second := post(2)
	after := srv.Snapshot()
	if second.Lookups.Cert != 0 || second.Lookups.SharedFinal == 0 || second.Lookups.Total != second.Lookups.Final {
		t.Fatalf("second request bill %+v, want a member row", second.Lookups)
	}
	if d := after.SyndromeLookups - before.SyndromeLookups; d != second.Lookups.Final {
		t.Fatalf("server look-ups grew by %d, the response's own final is %d", d, second.Lookups.Final)
	}
	cs := after.Engines[0].Cache
	if cs.HypothesisHits != 1 || cs.HypothesisEntries != 1 || cs.HypothesisBytes <= 0 {
		t.Fatalf("cache stats %+v, want one stored hypothesis and one hit", cs)
	}
	var buf bytes.Buffer
	writePrometheus(&buf, after)
	if !strings.Contains(buf.String(), "diagnosed_cache_hypothesis_hits_total{engine=\"q:8\"} 1\n") {
		t.Error("/metrics does not report the hypothesis hit")
	}
}

// TestGracefulShutdownDrains pins the drain contract: requests sitting
// in an unexpired coalescing window when Close is called are flushed
// and answered — nothing is dropped — and the flush serves them as one
// coalesced batch.
func TestGracefulShutdownDrains(t *testing.T) {
	const spec = "q:6"
	srv := New(Config{
		Window:   10 * time.Minute, // never expires during the test
		MaxBatch: 100,              // never size-triggers
		Workers:  2,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(7))
	const n = 6
	type result struct {
		i      int
		status int
		dr     DiagnoseResponse
	}
	hyps := make([]*bitset.Set, n)
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		hyps[i] = syndrome.RandomFaults(64, 3, rng)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{
				Topology: spec, Faults: hyps[i].Members(), Behavior: "mimic",
			})
			results <- result{i, status, dr}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().PendingRequests < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests became pending", srv.Snapshot().PendingRequests, n)
		}
		time.Sleep(time.Millisecond)
	}

	srv.Close() // must flush the window and answer everything
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d after drain (%s)", r.i, r.status, r.dr.Error)
		}
		soloF, solo := soloDiagnose(t, spec, hyps[r.i], syndrome.Mimic{})
		checkBitIdentical(t, fmt.Sprintf("drained %d", r.i), r.dr, soloF, solo)
		if r.dr.BatchWidth != n {
			t.Errorf("request %d: drained batch width = %d, want %d", r.i, r.dr.BatchWidth, n)
		}
	}

	// After Close the server refuses new work.
	status, _ := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: spec, Faults: []int{1}})
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-close request: status %d, want 503", status)
	}
}

// TestRegistryEviction pins the LRU: binding past the cap evicts the
// least recently used engine, and an evicted spec rebinds cleanly on
// its next request.
func TestRegistryEviction(t *testing.T) {
	srv := New(Config{RegistryCap: 2, NoCoalesce: true})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(spec string) {
		t.Helper()
		status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: spec, Faults: []int{0, 3}})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", spec, status, dr.Error)
		}
	}
	post("q:6")
	post("q:7")
	post("q:6") // bump q:6 to MRU
	post("q:8") // evicts q:7
	keys := srv.residentKeys()
	if len(keys) != 2 || keys[0] != "q:8" || keys[1] != "q:6" {
		t.Fatalf("resident keys = %v, want [q:8 q:6]", keys)
	}
	post("q:7") // rebinds, evicting q:6
	keys = srv.residentKeys()
	if len(keys) != 2 || keys[0] != "q:7" || keys[1] != "q:8" {
		t.Fatalf("resident keys after rebind = %v, want [q:7 q:8]", keys)
	}
}

// TestCampaignStream pins the campaign endpoint against the in-process
// reference: the streamed NDJSON points must be bit-identical to a
// direct campaign.Sweep over the CSR-bound network with the same config
// (the per-trial seed formula is position-independent, so per-point
// serving can't move outcomes). q:4 and q:5 have no Theorem 1
// partition, so their served descriptor engines must campaign the
// verification fallback exactly as the CSR engine does.
func TestCampaignStream(t *testing.T) {
	for _, spec := range []string{"q:8", "q:5", "q:4"} {
		t.Run(spec, func(t *testing.T) { testCampaignStream(t, spec) })
	}
}

func testCampaignStream(t *testing.T, spec string) {
	srv := New(Config{NoCoalesce: true, CacheCap: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := CampaignRequest{Topology: spec, MinFaults: 0, MaxFaults: 10, Trials: 16, Behavior: "mimic", Seed: 7}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got []CampaignPoint
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p CampaignPoint
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		got = append(got, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}

	nw, _ := topology.Parse(spec)
	want := campaign.Sweep(nw, campaign.Config{
		MinFaults: 0, MaxFaults: 10, Trials: 16, Behavior: syndrome.Mimic{}, Seed: 7,
	})
	if len(got) != len(want) {
		t.Fatalf("streamed %d points, want %d", len(got), len(want))
	}
	for i, p := range want {
		g := got[i]
		if g.Faults != p.Faults || g.Trials != p.Trials || g.Exact != p.Exact ||
			g.Refused != p.Refused || g.Silent != p.Silent {
			t.Errorf("point %d: got %+v, want %+v", i, g, p)
		}
	}
	if want[1].Exact == 0 {
		t.Fatalf("reference sweep exact at no single fault: %+v", want[1])
	}
	if snap := srv.Snapshot(); snap.Campaigns != 1 || snap.CampaignPoints != int64(len(want)) {
		t.Errorf("campaign counters = %d jobs / %d points, want 1 / %d",
			snap.Campaigns, snap.CampaignPoints, len(want))
	}
}

// TestCampaignStopsWhenClientLeaves checks that /v1/campaign stops
// sweeping once its client disconnects: the client reads the first
// streamed point of a 257-point Q8 campaign and closes the connection,
// and the handler must return having streamed only a few points.
func TestCampaignStopsWhenClientLeaves(t *testing.T) {
	srv := New(Config{NoCoalesce: true, CacheCap: -1})
	defer srv.Close()
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	const points = 257 // every fault count of Q8, 0..256
	req := CampaignRequest{Topology: "q:8", MinFaults: 0, MaxFaults: points - 1, Trials: 256, Behavior: "mimic", Seed: 7}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first point: %v", err)
	}
	// Closing a body that was not read to EOF closes the connection.
	resp.Body.Close()

	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("campaign handler still running a minute after its client left")
	}
	if n := srv.Snapshot().CampaignPoints; n > points/4 {
		t.Fatalf("streamed %d of %d points after the client left after the first", n, points)
	}
}

// TestCampaignOversizedBody checks that /v1/campaign refuses a body
// beyond maxRequestBytes with 413 even when it is otherwise a valid
// request (JSON whitespace padding), and starts no campaign.
func TestCampaignOversizedBody(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"topology":"q:6",` + strings.Repeat(" ", maxRequestBytes) + `"min_faults":0,"max_faults":1,"trials":1}`
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if snap := srv.Snapshot(); snap.Campaigns != 0 {
		t.Errorf("oversized request started %d campaigns", snap.Campaigns)
	}
}

// TestImplicitServing pins the implicit rule: an "implicit" request
// binds the same entry as the bare spec, and its response matches the
// solo reference bit for bit. It is accepted wherever that entry serves
// a generator set — q:10, and fq:8 too — and refused with 400 where the
// entry serves a CSR table (star:5), which the refused request still
// binds under the bare key.
func TestImplicitServing(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	F := bitset.New(1 << 10)
	for _, id := range []int{5, 99, 500, 1000} {
		F.Add(id)
	}
	status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{
		Topology: "q:10", Implicit: true, Faults: F.Members(), Behavior: "inverted",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, dr.Error)
	}

	eng := core.NewEngine(topology.NewHypercube(10))
	got, stats, err := eng.Diagnose(syndrome.NewLazy(F, syndrome.Inverted{}))
	if err != nil {
		t.Fatalf("solo diagnose: %v", err)
	}
	checkBitIdentical(t, "implicit", dr, got, stats)
	keys := srv.residentKeys()
	if len(keys) != 1 || keys[0] != "q:10" {
		t.Fatalf("resident keys = %v, want [q:10]", keys)
	}
	// The plain and implicit requests of one spec share one entry.
	for _, req := range []DiagnoseRequest{
		{Topology: "q:10", Faults: []int{1}},
		{Topology: "implicit:Q:10", Faults: []int{1}},
		{Topology: "fq:8", Implicit: true, Faults: []int{1}},
		{Topology: "implicit:fq:8", Faults: []int{1}},
		{Topology: "fq:8", Faults: []int{1}},
	} {
		if status, dr := postDiagnose(t, ts.URL, req); status != http.StatusOK {
			t.Fatalf("%+v: status %d (%s)", req, status, dr.Error)
		}
	}
	for _, req := range []DiagnoseRequest{
		{Topology: "star:5", Implicit: true, Faults: []int{1}},
		{Topology: "implicit:star:5", Faults: []int{1}},
	} {
		if status, dr := postDiagnose(t, ts.URL, req); status != http.StatusBadRequest {
			t.Fatalf("%+v: status %d (%s), want 400", req, status, dr.Error)
		}
	}
	if keys = srv.residentKeys(); !slices.Equal(keys, []string{"star:5", "fq:8", "q:10"}) {
		t.Fatalf("resident keys = %v, want [star:5 fq:8 q:10]", keys)
	}
	for _, key := range []string{"q:10", "fq:8"} {
		ent, err := srv.reg.get(key)
		if err != nil {
			t.Fatal(err)
		}
		binding, _ := adjacencyFootprint(ent.eng)
		materialized := ent.eng.Graph().Materialized()
		ent.release()
		if binding != "descriptor" || materialized {
			t.Fatalf("served %s bound as %q, CSR written %v; want the descriptor binding and no CSR", key, binding, materialized)
		}
	}
}

// TestDiagnoseValidation sweeps the request-rejection matrix.
func TestDiagnoseValidation(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"topology":`, http.StatusBadRequest},
		{"unknown field", `{"topology":"q:6","bogus":1}`, http.StatusBadRequest},
		{"missing topology", `{"faults":[1]}`, http.StatusBadRequest},
		{"bad topology", `{"topology":"nonsense:9"}`, http.StatusBadRequest},
		{"too many arcs for int32", `{"topology":"q:27","faults":[1]}`, http.StatusBadRequest},
		{"too many nodes for int32", `{"topology":"q:40","faults":[1]}`, http.StatusBadRequest},
		{"implicit, too many arcs for int32", `{"topology":"q:27","implicit":true,"faults":[1]}`, http.StatusBadRequest},
		{"implicit prefix, too many arcs for int32", `{"topology":"implicit:q:30","faults":[1]}`, http.StatusBadRequest},
		{"hypercube below Q2", `{"topology":"q:1","faults":[1]}`, http.StatusBadRequest},
		{"bad behavior", `{"topology":"q:6","behavior":"liar"}`, http.StatusBadRequest},
		{"fault out of range", `{"topology":"q:6","faults":[64]}`, http.StatusBadRequest},
		{"negative fault", `{"topology":"q:6","faults":[-1]}`, http.StatusBadRequest},
		{"negative bound", `{"topology":"q:6","faults":[1],"bound":-2}`, http.StatusBadRequest},
		{"implicit non-hypercube", `{"topology":"star:5","implicit":true,"faults":[1]}`, http.StatusBadRequest},
		{"beyond bound", `{"topology":"q:6","faults":[0,1,2,3,4,5,6,7,8,9,10,11]}`, http.StatusUnprocessableEntity},
		{"oversized body", `{"topology":"q:6",` + strings.Repeat(" ", maxRequestBytes) + `"faults":[1]}`, http.StatusRequestEntityTooLarge},
		{"trailing garbage", `{"topology":"q:6","faults":[1]}garbage`, http.StatusBadRequest},
		{"second object", `{"topology":"q:6","faults":[1]} {"topology":"q:6"}`, http.StatusBadRequest},
		{"trailing brace", `{"topology":"q:6","faults":[1]}}`, http.StatusBadRequest},
		{"null body", `null`, http.StatusBadRequest},
		{"array body", `[{"topology":"q:6","faults":[1]}]`, http.StatusBadRequest},
		{"oversized trailing whitespace", `{"topology":"q:6","faults":[1]}` + strings.Repeat(" ", maxRequestBytes), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	// Every refusal above, the oversized body included, is counted.
	if got := srv.Snapshot().Errors; got != int64(len(cases)) {
		t.Errorf("diagnosed_errors_total = %d after %d refused requests", got, len(cases))
	}
	// Method checks.
	if resp, err := http.Get(ts.URL + "/v1/diagnose"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/diagnose: status %d, want 405", resp.StatusCode)
		}
	}
	// Campaign validation.
	postC := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	campaignCases := []struct {
		name string
		body string
		want int
	}{
		{"zero trials", `{"topology":"q:6","min_faults":0,"max_faults":2}`, http.StatusBadRequest},
		{"inverted range", `{"topology":"q:6","min_faults":3,"max_faults":1,"trials":4}`, http.StatusBadRequest},
		{"too many points", `{"topology":"q:6","min_faults":0,"max_faults":9999,"trials":1}`, http.StatusBadRequest},
		{"max beyond nodes", `{"topology":"q:6","min_faults":0,"max_faults":65,"trials":1}`, http.StatusBadRequest},
		{"trailing garbage", `{"topology":"q:6","min_faults":0,"max_faults":1,"trials":1}garbage`, http.StatusBadRequest},
		{"second object", `{"topology":"q:6","min_faults":0,"max_faults":1,"trials":1} {"topology":"q:6"}`, http.StatusBadRequest},
		{"null body", `null`, http.StatusBadRequest},
		{"oversized trailing whitespace", `{"topology":"q:6","min_faults":0,"max_faults":1,"trials":1}` + strings.Repeat(" ", maxRequestBytes), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range campaignCases {
		if got := postC(tc.body); got != tc.want {
			t.Errorf("campaign %s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	if snap := srv.Snapshot(); snap.Campaigns != 0 {
		t.Errorf("refused requests started %d campaigns", snap.Campaigns)
	}
}

// TestMetricsEndpoint checks the exporter surface: /healthz, and the
// metric families the acceptance criteria name (cache hit rate,
// shared-prefix savings, worker occupancy) present in /metrics.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{Window: time.Millisecond, MaxBatch: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two concurrent same-hypothesis requests so sharing engages.
	var wg sync.WaitGroup
	for _, b := range []string{"mimic", "allzero"} {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			postDiagnose(t, ts.URL, DiagnoseRequest{Topology: "q:6", Faults: []int{3, 9}, Behavior: b})
		}(b)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, family := range []string{
		"diagnosed_requests_total",
		"diagnosed_responses_total",
		"diagnosed_diagnoses_total",
		"diagnosed_batch_width_max",
		"diagnosed_syndrome_lookups_total",
		"diagnosed_syndrome_lookups_per_second",
		"diagnosed_shared_final_lookups_total",
		"diagnosed_cache_hit_rate{engine=\"q:6\"}",
		"diagnosed_cache_hypothesis_hits_total{engine=\"q:6\"}",
		"diagnosed_cache_hypothesis_bytes{engine=\"q:6\"}",
		"diagnosed_runtime_worker_occupancy{engine=\"q:6\"}",
		"diagnosed_engine_delta{engine=\"q:6\"",
		"diagnosed_engine_adjacency_bytes{engine=\"q:6\",binding=\"descriptor\"}",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}

// TestEngineBindingSnapshot pins the binding report: hypercubes, and
// the other XOR-Cayley families a network engine binds over a
// descriptor-backed graph (fq:8), are descriptor-bound with the
// generator's footprint and write no CSR; every other family is
// CSR-bound with its arrays' footprint, and /metrics labels both.
func TestEngineBindingSnapshot(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	for _, spec := range []string{"q:8", "fq:8", "star:5"} {
		if err := srv.Preload(spec); err != nil {
			t.Fatalf("preload %s: %v", spec, err)
		}
	}
	nw, err := topology.Parse("star:5")
	if err != nil {
		t.Fatal(err)
	}
	csrBytes := graph.CSRFootprintBytes(nw.Graph().N(), nw.Graph().M())
	eng := core.NewEngine(topology.NewHypercube(8))
	descBytes := eng.Adjacency().(*graph.CayleyAdjacency).FootprintBytes()
	fq, err := topology.Parse("fq:8")
	if err != nil {
		t.Fatal(err)
	}
	fqBytes := fq.Graph().CayleyAdjacency().FootprintBytes()
	want := map[string]EngineSnapshot{
		"q:8":    {Binding: "descriptor", AdjacencyBytes: descBytes},
		"fq:8":   {Binding: "descriptor", AdjacencyBytes: fqBytes},
		"star:5": {Binding: "csr", AdjacencyBytes: csrBytes},
	}
	snap := srv.Snapshot()
	if len(snap.Engines) != len(want) {
		t.Fatalf("%d engines resident, want %d", len(snap.Engines), len(want))
	}
	for _, es := range snap.Engines {
		w := want[es.Key]
		if es.Binding != w.Binding || es.AdjacencyBytes != w.AdjacencyBytes {
			t.Errorf("%s: binding %q, %d bytes; want %q, %d bytes", es.Key, es.Binding, es.AdjacencyBytes, w.Binding, w.AdjacencyBytes)
		}
	}
	ent, err := srv.reg.get("fq:8")
	if err != nil {
		t.Fatal(err)
	}
	defer ent.release()
	if ent.eng.Graph().Materialized() {
		t.Error("fq:8 engine wrote its CSR")
	}
	var buf bytes.Buffer
	writePrometheus(&buf, snap)
	for _, line := range []string{
		fmt.Sprintf("diagnosed_engine_adjacency_bytes{engine=\"q:8\",binding=\"descriptor\"} %d\n", descBytes),
		fmt.Sprintf("diagnosed_engine_adjacency_bytes{engine=\"fq:8\",binding=\"descriptor\"} %d\n", fqBytes),
		fmt.Sprintf("diagnosed_engine_adjacency_bytes{engine=\"star:5\",binding=\"csr\"} %d\n", csrBytes),
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestOversizedHypercubeRefusedSmall pins the size refusal: every
// hypercube spec whose arcs overflow int32 — plain, implicit, or past
// the node-id range — is refused before anything proportional to 2^n
// is allocated.
func TestOversizedHypercubeRefusedSmall(t *testing.T) {
	srv := New(Config{NoCoalesce: true})
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, spec := range []string{"q:27", "implicit:q:27", "hypercube:28", "implicit:q:30", "q:40", "q:1000"} {
		if err := srv.Preload(spec); err == nil {
			t.Errorf("%s: bound, want a refusal", spec)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusals allocated %d bytes; want well under 1 MiB", grew)
	}
	if keys := srv.residentKeys(); len(keys) != 0 {
		t.Errorf("resident keys = %v after refusals", keys)
	}
}

// TestSnapshotZeroSafe pins the division-by-zero audit at the service
// level: a fresh server's derived rates are zeros, not NaN.
func TestSnapshotZeroSafe(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	snap := srv.Snapshot()
	if snap.MeanBatchWidth != 0 {
		t.Errorf("MeanBatchWidth = %v on a fresh server", snap.MeanBatchWidth)
	}
	if snap.LookupsPerSecond != 0 {
		t.Errorf("LookupsPerSecond = %v on a fresh server", snap.LookupsPerSecond)
	}
	var buf bytes.Buffer
	writePrometheus(&buf, snap)
	if strings.Contains(buf.String(), "NaN") {
		t.Error("fresh /metrics contains NaN")
	}
}
