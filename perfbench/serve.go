package main

// serve_mix: the nocserve service (service.New + service.Handler) behind
// an in-process loopback HTTP server, driven by two closed-loop clients
// that each wait for their reply (?wait=1) before sending the next
// request. The request sequence is drawn from --seed: a kind (/v1/
// synthesize, /v1/simulate or streamed /v1/frontier, one third each),
// then a Zipf-skewed pick from that kind's pool of six distinct requests,
// so repeats hit the result cache, simultaneous repeats coalesce, and
// each pool entry's first request is a cold solve or simulation. The
// equal shares, pool sizes and Zipf exponent are assumptions, not
// measured nocserve traffic: no recorded request mix exists, so every
// kind gets the same weight. The pools are fixed (like the other
// workloads' graphs) so every pass does the same cold work; every pass
// gets a fresh service, so it starts cold.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frontier"
	"repro/internal/noc"
	"repro/internal/randgraph"
	"repro/internal/service"

	repro "repro"
)

type serveReq struct {
	kind string // "synthesize", "simulate" or "frontier"
	body []byte
	// Decoded forms, for the local reference computations.
	synth *service.SynthesizeRequest
	sim   *noc.SimRequest
	front *service.FrontierRequest
}

type serveFixture struct {
	seed int64
	pool []serveReq
	seq  []int // request sequence, as indices into pool

	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	tr     atomic.Pointer[tracer] // the traced pass's tracer, for the server side

	// bodies holds the last pass's response body for each pool entry.
	bodies map[int][]byte
}

// synthOptions are the solve options of every synthesize and frontier
// request: one solver worker each, so two service workers use two CPUs.
var synthOptions = service.RequestOptions{Mode: "links", Parallelism: 1, TimeoutMs: 20000}

func setupServe(seed int64, size sizing) (fixture, error) {
	// 360 requests make a pass of about 0.8 s, about 40 passes a run.
	perKind, length := 6, 360
	if size == tiny {
		perKind, length = 1, 30
	}
	f := &serveFixture{seed: seed, bodies: map[int][]byte{}}
	// Synthesize and frontier requests draw from one list of small
	// connected ACGs (7 to 11 nodes, p = 0.3), whose cold solves take
	// milliseconds to a few hundred milliseconds.
	var acgs []*repro.Graph
	for s := int64(1); len(acgs) < 2*perKind; s++ {
		g, err := randgraph.ErdosRenyi(7+len(acgs)%5, 0.3, 8, 64, s)
		if err != nil {
			return nil, err
		}
		if g.WeaklyConnected() {
			acgs = append(acgs, g)
		}
	}
	var synth, sim, front []int
	for _, g := range acgs[:perKind] {
		req := &service.SynthesizeRequest{Graph: g, Options: synthOptions}
		if err := f.add(&synth, serveReq{kind: "synthesize", synth: req}, req); err != nil {
			return nil, err
		}
	}
	for _, g := range acgs[perKind:] {
		req := &service.FrontierRequest{Graph: g, Options: synthOptions, Points: 4}
		req.Options.TimeoutMs = 0
		if err := f.add(&front, serveReq{kind: "frontier", front: req}, req); err != nil {
			return nil, err
		}
	}
	for i := 0; i < perKind; i++ {
		arch := noc.SimArch{Mesh: "4x4"}
		if i%2 == 1 {
			arch = noc.SimArch{BA: "64:2:3"}
		}
		req := &noc.SimRequest{Archs: []noc.SimArch{arch}}
		for j, pattern := range []string{"uniform", "hotspot:0:0.3"} {
			req.Points = append(req.Points, noc.SimPoint{
				Pattern: pattern, Bits: 128, Rate: 0.01 * float64(1+i/2), WarmupCycles: 200, MeasureCycles: 1000,
				Seed: noc.PointSeed(seed, 2*i+j), IncludeStats: true,
			})
		}
		if err := f.add(&sim, serveReq{kind: "simulate", sim: req}, req); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(seed))
	pick := func(pool []int) func() int {
		perm := rng.Perm(len(pool)) // the seed decides which entries are popular
		if len(pool) == 1 {
			return func() int { return pool[0] }
		}
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
		return func() int { return pool[perm[z.Uint64()]] }
	}
	picks := []func() int{pick(synth), pick(sim), pick(front)}
	for i := 0; i < length; i++ {
		f.seq = append(f.seq, picks[rng.Intn(len(picks))]())
	}
	// Every pool entry is requested at least once, so every pass does
	// the same cold work.
	seen := map[int]bool{}
	for _, i := range f.seq {
		seen[i] = true
	}
	for i := range f.pool {
		if !seen[i] {
			f.seq = slices.Insert(f.seq, rng.Intn(len(f.seq)+1), i)
		}
	}
	if err := f.start(); err != nil {
		return nil, err
	}
	return f, nil
}

// add encodes a request body and appends it to the pool.
func (f *serveFixture) add(kindPool *[]int, r serveReq, wire any) error {
	body, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	r.body = body
	*kindPool = append(*kindPool, len(f.pool))
	f.pool = append(f.pool, r)
	return nil
}

// start brings up the service, its HTTP server and the client.
func (f *serveFixture) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.svc = service.New(service.Config{Workers: 2})
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: f.middleware(service.Handler(f.svc))}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}
	return nil
}

func (f *serveFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.srv.Shutdown(ctx) // only fails on timeout; Drain below still stops the workers
	<-f.served
	_ = f.svc.Drain(ctx)
	f.client.CloseIdleConnections()
}

const spanHeader = "X-Perfbench-Span"

// middleware times the server side of traced requests.
func (f *serveFixture) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.tr.Load()
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if tr == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.beginRemote(parent, "service.handler")
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.end(sp)
		path := w.Header().Get("X-Nocserve-Path")
		if path == "cache" {
			if r.URL.Path == "/v1/synthesize" {
				tr.sample("service.handler_hit_ms", 1e3*time.Since(t0).Seconds())
			}
			return
		}
		job, ok := f.svc.JobByID(w.Header().Get("X-Nocserve-Job"))
		if !ok {
			return
		}
		st := job.Status()
		if st.StartedAt == nil || st.FinishedAt == nil {
			return
		}
		run := map[string]string{"": "core.solve", service.JobKindSimulate: "noc.step", service.JobKindFrontier: "frontier.enumerate"}[st.Kind]
		tr.interval(sp, "service.queue_wait", st.SubmittedAt, *st.StartedAt)
		tr.interval(sp, run, *st.StartedAt, *st.FinishedAt)
		if path == "queued" {
			tr.sample("service.queue_wait_ms", 1e3*st.StartedAt.Sub(st.SubmittedAt).Seconds())
			tr.sample("service.run_ms", 1e3*st.FinishedAt.Sub(*st.StartedAt).Seconds())
		}
	})
}

// timeDecodeAndKey times, once per synthesize pool entry and off every
// request's path, the two steps that a cache hit cannot skip: decoding
// the body (as the handler does, which is not exported) and computing
// its service.CacheKey.
func (f *serveFixture) timeDecodeAndKey(tr *tracer) {
	for _, r := range f.pool {
		if r.kind != "synthesize" {
			continue
		}
		t0 := time.Now()
		var req service.SynthesizeRequest
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Graph == nil {
			continue
		}
		t1 := time.Now()
		opts, err := req.Options.ToOptions()
		if err != nil {
			continue
		}
		_ = service.CacheKey(req.Graph, opts, f.svc.Library())
		tr.sample("service.decode_ms", 1e3*t1.Sub(t0).Seconds())
		tr.sample("service.key_ms", 1e3*time.Since(t1).Seconds())
	}
}

// reply is one completed request.
type reply struct {
	idx        int
	err        error // the request could not be sent or its reply read
	status     int
	path       string
	body       []byte
	lat, first float64
}

func (f *serveFixture) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	f.tr.Store(tr)
	defer f.tr.Store(nil)
	t0 := time.Now()
	replies := make([]reply, len(f.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.begin(-1, "lane")
			defer tr.end(lane)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(f.seq) {
					return
				}
				replies[i] = f.do(ctx, tr, lane, f.seq[i])
			}
		}()
	}
	wg.Wait()
	// Simulation runs on the service workers alongside everything else,
	// so its host time is the whole time the clients were busy.
	pr := &passResult{attempted: len(f.seq), simSecs: time.Since(t0).Seconds()}
	f.bodies = map[int][]byte{}
	for _, r := range replies {
		req := f.pool[r.idx]
		switch {
		case r.err != nil:
			pr.fail("%s request: %v", req.kind, r.err)
			continue
		case r.status != http.StatusOK:
			pr.fail("%s request: status %d: %s", req.kind, r.status, bytes.TrimSpace(r.body))
			continue
		case req.kind == "frontier" && bytes.Contains(r.body, []byte(`{"error":`)):
			pr.fail("frontier stream ended in error: %s", bytes.TrimSpace(r.body))
			continue
		}
		pr.lat = append(pr.lat, r.lat)
		if req.kind == "frontier" {
			pr.first = append(pr.first, r.first)
		}
		// Every repeat of a request (cache hit or coalesced) must return
		// the bytes of its first reply in the pass.
		if prev, ok := f.bodies[r.idx]; !ok {
			f.bodies[r.idx] = r.body
		} else if !bytes.Equal(prev, r.body) {
			pr.fail("%s request %d: repeat reply differs from the first", req.kind, r.idx)
		}
		if req.kind == "simulate" && r.path == "queued" {
			hops, err := simulatedHops(r.body)
			if err != nil {
				pr.fail("simulate reply: %v", err)
			}
			pr.flitHops += hops
		}
		if tr != nil && req.kind == "synthesize" {
			switch r.path {
			case "cache":
				tr.sample("service.hit_p50_ms", 1e3*r.lat)
			case "queued":
				tr.sample("service.cold_p50_ms", 1e3*r.lat)
			}
		}
	}
	if tr != nil {
		f.timeDecodeAndKey(tr)
		if err := f.countMetrics(ctx, tr); err != nil {
			return nil, err
		}
	}
	model, err := f.model()
	if err != nil {
		return nil, err
	}
	pr.model = model
	return pr, nil
}

// do sends one request and reads its whole reply.
func (f *serveFixture) do(ctx context.Context, tr *tracer, lane, idx int) reply {
	req := f.pool[idx]
	out := reply{idx: idx}
	sp := tr.begin(lane, "http.client")
	defer tr.end(sp)
	t0 := time.Now()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/"+req.kind+"?wait=1", bytes.NewReader(req.body))
	if err != nil {
		out.err = err
		return out
	}
	hr.Header.Set("Content-Type", "application/json")
	if sp >= 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	resp, err := f.client.Do(hr)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status, out.path = resp.StatusCode, resp.Header.Get("X-Nocserve-Path")
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	out.first = time.Since(t0).Seconds()
	if err != nil && !errors.Is(err, io.EOF) {
		out.err = err
		return out
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		out.err = err
		return out
	}
	out.lat = time.Since(t0).Seconds()
	out.body = append(line, rest...)
	return out
}

// simulatedHops sums the link traversals of a simulate reply's points.
func simulatedHops(body []byte) (int64, error) {
	var res struct {
		Points []struct {
			Stats struct {
				LinkTraversals map[string]int64 `json:"linkTraversals"`
				LinkCompact    *struct {
					Total int64 `json:"total"`
				} `json:"linkTraversalsCompact"`
			} `json:"stats"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, err
	}
	var hops int64
	for _, p := range res.Points {
		for _, v := range p.Stats.LinkTraversals {
			hops += v
		}
		if p.Stats.LinkCompact != nil {
			hops += p.Stats.LinkCompact.Total
		}
	}
	return hops, nil
}

// countMetrics reads the pass's job counters from GET /metrics.
func (f *serveFixture) countMetrics(ctx context.Context, tr *tracer) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	want := map[string]string{
		"nocserve_jobs_submitted_total": "service.jobs_submitted",
		"nocserve_cache_hits_total":     "service.cache_hits",
		"nocserve_jobs_coalesced_total": "service.coalesced",
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if c, found := want[name]; ok && found {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("metrics: %s: %w", name, err)
			}
			tr.count(c, v)
		}
	}
	return sc.Err()
}

// model is the pass's canonical reply per pool entry. Synthesis replies
// drop their solver statistics, which depend on timing.
func (f *serveFixture) model() ([]byte, error) {
	idx := make([]int, 0, len(f.bodies))
	for i := range f.bodies {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var out []json.RawMessage
	for _, i := range idx {
		b := f.bodies[i]
		if f.pool[i].kind == "synthesize" {
			var err error
			if b, err = withoutStats(b); err != nil {
				return nil, err
			}
		}
		enc, err := json.Marshal(string(b))
		if err != nil {
			return nil, err
		}
		out = append(out, enc)
	}
	return json.Marshal(out)
}

func withoutStats(result []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(result, &m); err != nil {
		return nil, err
	}
	delete(m, "stats")
	return json.Marshal(m)
}

// verify recomputes one seeded sample of each kind locally and compares
// it with the service's reply.
func (f *serveFixture) verify(ctx context.Context) []string {
	rng := rand.New(rand.NewSource(f.seed ^ 0x5eed))
	byKind := map[string][]int{}
	for i := range f.bodies {
		byKind[f.pool[i].kind] = append(byKind[f.pool[i].kind], i)
	}
	var failures []string
	for _, kind := range []string{"synthesize", "simulate", "frontier"} {
		cands := byKind[kind]
		if len(cands) == 0 {
			continue
		}
		sort.Ints(cands)
		i := cands[rng.Intn(len(cands))]
		got := f.bodies[i]
		want, err := f.local(ctx, f.pool[i])
		if err == nil && kind == "synthesize" {
			if got, err = withoutStats(got); err == nil {
				want, err = withoutStats(want)
			}
		}
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("local %s reference: %v", kind, err))
		case !bytes.Equal(got, want):
			failures = append(failures, fmt.Sprintf("%s reply for pool entry %d differs from the local computation", kind, i))
		}
	}
	return failures
}

// local computes a request's canonical reply without the service.
func (f *serveFixture) local(ctx context.Context, r serveReq) ([]byte, error) {
	var buf bytes.Buffer
	switch r.kind {
	case "synthesize":
		opts, err := r.synth.Options.ToOptions()
		if err != nil {
			return nil, err
		}
		opts.Library = f.svc.Library()
		res, err := repro.SynthesizeContext(ctx, r.synth.Graph, opts)
		if err != nil {
			return nil, err
		}
		return res.EncodeJSON()
	case "simulate":
		res, err := noc.RunSim(ctx, r.sim, 1)
		if err != nil {
			return nil, err
		}
		err = res.EncodeJSON(&buf)
		return buf.Bytes(), err
	default:
		opts, err := r.front.Options.ToOptions()
		if err != nil {
			return nil, err
		}
		opts.Library = f.svc.Library()
		res, err := frontier.Enumerate(ctx, r.front.Graph, frontier.Options{Points: r.front.Points, Synth: opts})
		if err != nil {
			return nil, err
		}
		err = res.EncodeNDJSON(&buf)
		return buf.Bytes(), err
	}
}
