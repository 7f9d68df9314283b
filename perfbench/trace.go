package main

// Tracing for the --trace 1 run. The benchmark's own code wraps each call
// into a layer's public function in a span (name, parent, start, end).
// A span's self time is its duration minus its children's. Where one call
// hides several layers (the solver calls VF2; a batch run calls the
// traffic generator, Reset and the lazy route compiler), the span's self
// time is split between them by CPU-profile samples: every span labels
// its goroutine (and the goroutines the call starts) with its id, and a
// sample counts toward the outermost frame on its stack that belongs to
// one of the span's sub-layers, or toward the span's own layer otherwise.
//
// Each workload pass runs inside one or more lane spans (one per client
// goroutine); lane time no child span covers is reported as
// trace.uncovered_share, so the layer shares add up to one.

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// subLayer attributes samples whose stack holds a frame of fn to the
// layer named layer. fn is a function name as the profile records it
// ("repro/internal/noc.NewCompiled"), which also matches the function's
// closures, or a package path ending in "." to match all its functions.
type subLayer struct{ fn, layer string }

func (r subLayer) match(frame string) bool {
	if strings.HasSuffix(r.fn, ".") {
		return strings.HasPrefix(frame, r.fn)
	}
	return frame == r.fn || strings.HasPrefix(frame, r.fn+".func")
}

type span struct {
	layer      string
	parent     int
	start, end time.Duration
	sub        []subLayer
	labels     context.Context
	remote     bool // begun on another goroutine than its parent
}

// tracer records one traced pass. A nil *tracer records nothing, so
// untraced passes share the workload code at the cost of a nil check.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	counts  map[string]float64
	samples map[string][]float64
	prof    bytes.Buffer
	// self is the per-layer self time of the pass, filled by stop.
	self      map[string]float64
	lanes     float64
	uncovered float64
}

func newTracer() *tracer {
	return &tracer{counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (t *tracer) start() {
	if t == nil {
		return
	}
	t.t0 = time.Now()
	// A failure to profile only loses the sampled split of self time.
	_ = pprof.StartCPUProfile(&t.prof)
}

// begin opens a span under parent (-1 opens a lane) on the calling
// goroutine and labels the goroutine with it.
func (t *tracer) begin(parent int, layer string, sub ...subLayer) int {
	return t.open(parent, layer, false, sub)
}

// beginRemote opens a span on a goroutine other than its parent's (the
// server side of a request). Its end clears the goroutine's labels.
func (t *tracer) beginRemote(parent int, layer string) int {
	return t.open(parent, layer, true, nil)
}

func (t *tracer) open(parent int, layer string, remote bool, sub []subLayer) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	labels := pprof.WithLabels(context.Background(), pprof.Labels("span", strconv.Itoa(id)))
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: time.Since(t.t0), sub: sub, labels: labels, remote: remote})
	t.mu.Unlock()
	pprof.SetGoroutineLabels(labels)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	restore := context.Background()
	if !s.remote && s.parent >= 0 {
		restore = t.spans[s.parent].labels
	}
	t.mu.Unlock()
	pprof.SetGoroutineLabels(restore)
}

// interval records a span known only by its timestamps (a service job's
// queue wait and run), clipped to its parent.
func (t *tracer) interval(parent int, layer string, from, to time.Time) {
	if t == nil || parent < 0 || from.IsZero() || to.IsZero() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	a, b := max(from.Sub(t.t0), p.start), min(to.Sub(t.t0), p.end)
	if b > a {
		t.spans = append(t.spans, span{layer: layer, parent: parent, start: a, end: b})
	}
}

// count adds v to a per-pass counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// sample records one observation whose median is reported.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// stop ends profiling and computes per-layer self time.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	pprof.SetGoroutineLabels(context.Background())
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return err
	}
	// hits[span][layer] counts the samples taken under each span.
	hits := map[int]map[string]int{}
	for _, smp := range samples {
		id, err := strconv.Atoi(smp.labels["span"])
		if err != nil || id < 0 || id >= len(t.spans) {
			continue
		}
		s := &t.spans[id]
		layer := s.layer
		// The stack is leaf first; the outermost matching frame wins.
	frames:
		for i := len(smp.stack) - 1; i >= 0; i-- {
			for _, r := range s.sub {
				if r.match(smp.stack[i]) {
					layer = r.layer
					break frames
				}
			}
		}
		if hits[id] == nil {
			hits[id] = map[string]int{}
		}
		hits[id][layer] += int(smp.count)
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	t.self = map[string]float64{}
	for i, s := range t.spans {
		if s.parent < 0 {
			t.lanes += (s.end - s.start).Seconds()
			t.uncovered += self[i].Seconds()
			continue
		}
		total := 0
		for _, n := range hits[i] {
			total += n
		}
		if total == 0 {
			t.self[s.layer] += self[i].Seconds()
			continue
		}
		for layer, n := range hits[i] {
			t.self[layer] += self[i].Seconds() * float64(n) / float64(total)
		}
	}
	return nil
}

// traceSummary accumulates the traced passes of a run.
type traceSummary struct {
	passes    int
	self      map[string]float64
	counts    map[string]float64
	samples   map[string][]float64
	lanes     float64
	uncovered float64
}

func newTraceSummary() *traceSummary {
	return &traceSummary{self: map[string]float64{}, counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (s *traceSummary) add(t *tracer) {
	s.passes++
	for k, v := range t.self {
		s.self[k] += v
	}
	for k, v := range t.counts {
		s.counts[k] += v
	}
	for k, v := range t.samples {
		s.samples[k] = append(s.samples[k], v...)
	}
	s.lanes += t.lanes
	s.uncovered += t.uncovered
}

// layers are the span layers whose self time and share are reported.
var layers = []string{
	"core.solve", "iso.findall", "topology.glue", "routing.build",
	"routing.dense_compile", "routing.landmark_compile", "routing.sparse_compile", "routing.lazy_compile",
	"noc.build_batch", "noc.acquire", "noc.reset", "noc.gen", "noc.step", "noc.sweep",
	"aes.run", "frontier.enumerate", "service.handler", "service.queue_wait", "http.client",
}

// rates are counters reported as a ratio of two per-pass counters.
var rates = []struct{ name, num, den string }{
	{"core.pruned_frac", "core.pruned", "core.branches"},
	{"core.iso_cache_hit_frac", "core.iso_cache_hits", "core.iso_lookups"},
	{"routing.plan_miss_frac", "routing.plan_misses", "noc.injected"},
	{"noc.busy_router_frac", "noc.busy_routers", "noc.routers"},
	{"noc.switch_flits_per_router_cycle", "noc.switch_flits", "noc.router_cycles"},
	{"service.hit_frac", "service.cache_hits", "service.jobs_submitted"},
	{"service.coalesced_frac", "service.coalesced", "service.jobs_submitted"},
}

// perPassCounts are counters reported as their mean per traced pass.
var perPassCounts = []string{
	"core.nodes", "iso.matches", "iso.enumerations", "go.alloc_mb", "go.gc_cycles",
	"routing.table_mb", "routing.lazy_compiles", "routing.lazy_compiles_warm", "noc.batch_run_s",
}

// medians are sampled observations reported as their median.
var medians = []string{
	"service.decode_ms", "service.key_ms", "service.handler_hit_ms", "service.hit_p50_ms",
	"service.cold_p50_ms", "service.queue_wait_ms", "service.run_ms",
}

// metrics renders the per-layer metrics. plainS and tracedS are the
// median untraced and traced pass times.
func (s *traceSummary) metrics(plainS, tracedS float64) map[string]metric {
	m := map[string]metric{}
	n := float64(max(s.passes, 1))
	for _, l := range layers {
		m[l+"_s"] = metric{s.self[l] / n, "s"}
		m[l+"_share"] = metric{frac(s.self[l], s.lanes), "1"}
	}
	for _, r := range rates {
		m[r.name] = metric{frac(s.counts[r.num], s.counts[r.den]), "1"}
	}
	m["noc.step_ns_per_cycle"] = metric{frac(1e9*s.self["noc.step"], s.counts["noc.cycles"]), "ns"}
	for _, c := range perPassCounts {
		unit := "count"
		switch {
		case strings.HasSuffix(c, "_mb"):
			unit = "MB"
		case strings.HasSuffix(c, "_s"):
			unit = "s"
		}
		m[c] = metric{s.counts[c] / n, unit}
	}
	for _, c := range medians {
		v := 0.0
		if len(s.samples[c]) > 0 {
			v = median(s.samples[c])
		}
		m[c] = metric{v, "ms"}
	}
	m["trace.uncovered_share"] = metric{frac(s.uncovered, s.lanes), "1"}
	m["trace.overhead_s"] = metric{tracedS - plainS, "s"}
	return m
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
