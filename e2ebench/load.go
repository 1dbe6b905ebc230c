package main

import (
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate arrivals per second over dur. The schedule depends only on
// seed, rate and dur, so it is generated before the clock starts and is
// identical on every run with the same seed.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// sample is one request of a load phase, as offsets from the phase
// start: when it was due, when the generator actually sent it, and
// when its answer was complete.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is measured from the due time, so a stall that holds back the
// generator counts against every request it delays.
func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) lag() time.Duration     { return s.sent - s.due }

// openLoop sends request i at due[i] regardless of how earlier requests
// fared, with at most maxInflight outstanding; when that many are
// outstanding the generator waits, and the wait shows up as lag and as
// latency of the requests it delays. do reports whether the answer
// verified. openLoop returns once every request has completed.
func openLoop(due []time.Duration, maxInflight int, do func(i int) bool) []sample {
	samples := make([]sample, len(due))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		samples[i].due = d
		samples[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok := do(i)
			samples[i].done = time.Since(start)
			samples[i].ok = ok
			<-sem
		}(i)
	}
	wg.Wait()
	return samples
}

// closedLoop runs clients that each send their next request only after
// the previous one answered, until dur has passed. next hands out
// request indices. It returns when the verified requests completed, as
// offsets from the phase start, the number that failed, and the wall
// time the phase took, which includes the requests still in flight at
// the deadline.
func closedLoop(clients int, dur time.Duration, next func() int, do func(i int) bool) (done []time.Duration, failN int64, elapsed time.Duration) {
	perClient := make([][]time.Duration, clients)
	var failC atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				if do(next()) {
					perClient[c] = append(perClient[c], time.Since(start))
				} else {
					failC.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, d := range perClient {
		done = append(done, d...)
	}
	return done, failC.Load(), elapsed
}

// span is one timed interval of the traced run. Spans of one request
// share Req; Parent names the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A request's root span
// has ID req+1, so a child recorded on another goroutine (the server's
// handler, a replay) can name its parent without coordination; other
// spans draw IDs above every root.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

const firstChildID = 1 << 40

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.nextID.Store(firstChildID)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func rootID(req int64) int64 { return req + 1 }

// root records the root span of request req.
func (t *tracer) root(req int64, name string, start, end int64) {
	t.add(span{ID: rootID(req), Req: req, Name: name, Start: start, End: end})
}

// child records a span caused by request req's root span.
func (t *tracer) child(req int64, name string, start, end int64) {
	t.add(span{ID: t.nextID.Add(1), Parent: rootID(req), Req: req, Name: name, Start: start, End: end})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the durations of the named spans, keyed by request.
func (t *tracer) byName(name string) map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += s.dur()
		}
	}
	return out
}

// writeSpans stores every workload's spans as one JSON object mapping
// the workload name to its span array.
func writeSpans(path string, tracers map[string]*tracer) error {
	all := make(map[string][]span, len(tracers))
	for name, t := range tracers {
		all[name] = t.spans
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(all)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rtCounters is a reading of the Go runtime's cumulative counters.
type rtCounters struct {
	allocBytes     uint64
	gcCPU, busyCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() (rtCounters, uint64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}, s[4].Value.Uint64()
}

// heapMB is the live heap once set-up has settled: worker goroutines a
// set-up started have had time to draw their scratches, and two
// collections have emptied the sync.Pool victim caches.
func heapMB() float64 {
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
	runtime.GC()
	_, heap := readRuntime()
	return float64(heap) / (1 << 20)
}

// poller calls fn every 10 ms until stop, which waits for its last call.
type poller struct {
	quit chan struct{}
	done chan struct{}
}

func startPoller(fn func()) *poller {
	p := &poller{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			fn()
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *poller) stop() {
	close(p.quit)
	<-p.done
}

// loopback serves h on 127.0.0.1 with cleartext HTTP/2 accepted, and
// returns a client that reaches it over a single cleartext HTTP/2
// connection, so many requests can be in flight on one socket.
type loopback struct {
	hs       *http.Server
	ln       *countingListener
	tr       *http.Transport
	client   *http.Client
	url      string
	serveErr chan error
}

// maxStreams bounds the requests in flight on the one connection; the
// open-loop generator stays below it so the client never needs a second
// connection.
const maxStreams = 1000

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var serverProtos, clientProtos http.Protocols
	serverProtos.SetHTTP1(true)
	serverProtos.SetUnencryptedHTTP2(true)
	clientProtos.SetUnencryptedHTTP2(true)
	lb := &loopback{
		hs: &http.Server{
			Handler:   h,
			Protocols: &serverProtos,
			HTTP2:     &http.HTTP2Config{MaxConcurrentStreams: maxStreams},
		},
		ln:       &countingListener{Listener: ln},
		tr:       &http.Transport{Protocols: &clientProtos, MaxConnsPerHost: 1},
		url:      "http://" + ln.Addr().String(),
		serveErr: make(chan error, 1),
	}
	lb.client = &http.Client{Transport: lb.tr}
	go func() { lb.serveErr <- lb.hs.Serve(lb.ln) }()
	return lb, nil
}

// close stops the HTTP server and waits for its accept loop to exit. It
// returns how many connections the server accepted.
func (lb *loopback) close() int64 {
	lb.tr.CloseIdleConnections()
	lb.hs.Close()
	<-lb.serveErr
	return lb.ln.accepted.Load()
}

type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}
