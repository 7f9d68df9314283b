package main

// sim_scale: batch simulation at scale through noc.BuildBatch and
// Batch.Run, with one NetworkPool shared by the pass. Three loaded points
// each run cold (compile the routing table, build the networks, fill the
// lazy plan cache) and then warm (the same batch again: pooled networks
// rewound by Reset, plans cached):
//
//   - 1k-router BA, uniform traffic: the dense all-pairs table;
//   - 10k-router BA, uniform traffic: the landmark-tree table;
//   - 10k-router BA, hotspot traffic: the sparse table plus lazy plans.
//
// The BA generator parameters and seed are fixed (1000:2:5, 10000:2:5),
// because the kernel's behaviour depends on the degree structure; --seed
// drives the traffic. Rates sit below the saturation measured with this
// configuration (default router, 128-bit packets): 1k uniform saturates
// between 0.006 and 0.007 packets/node/cycle, 10k uniform between 0.0005
// and 0.0007, 10k hotspot between 0.00015 and 0.0002.
//
// The 1k batch also carries TestGoldenSimBatchBA1k's request, whose
// response must match the committed golden fixture byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/noc"
	"repro/internal/randgraph"
)

type simCase struct {
	name    string
	compile string // the routing layer BuildBatch compiles this table with
	nodes   int    // BA topology: nodes, attachments per node, seed
	m       int
	baSeed  int64
	points  []noc.SimPoint
	golden  bool // point 0 is the golden request's point
	req     *noc.SimRequest
}

type simFixture struct {
	cases  []simCase
	golden []byte
}

// repoRoot is where the module's sources are, relative to the working
// directory.
var repoRoot = "."

const goldenBA1k = "internal/noc/testdata/simbatch_ba1k.golden.json"

// goldenPoint is TestGoldenSimBatchBA1k's request point.
var goldenPoint = noc.SimPoint{Arch: 0, Pattern: "uniform", Bits: 128, Rate: 0.005, WarmupCycles: 50, MeasureCycles: 400, Seed: 7}

func setupSim(seed int64, size sizing) (fixture, error) {
	golden, err := os.ReadFile(filepath.Join(repoRoot, goldenBA1k))
	if err != nil {
		return nil, err
	}
	big, hot, win1k, win10k, winHot := 10000, "hotspot:0,17,4096,9999:0.5", int64(4000), int64(2000), int64(600)
	if size == tiny {
		big, hot, win1k, win10k, winHot = 2500, "hotspot:0,17,1024,2499:0.5", 400, 300, 300
	}
	point := func(pattern string, rate float64, window int64, i int) noc.SimPoint {
		return noc.SimPoint{Arch: 0, Pattern: pattern, Bits: 128, Rate: rate,
			WarmupCycles: 300, MeasureCycles: window, Seed: noc.PointSeed(seed, i)}
	}
	f := &simFixture{golden: golden, cases: []simCase{
		{name: "ba1k-uniform", compile: "routing.dense_compile", nodes: 1000, m: 2, baSeed: 5, golden: true,
			points: []noc.SimPoint{goldenPoint, point("uniform", 0.005, win1k, 0)}},
		{name: "ba10k-uniform", compile: "routing.landmark_compile", nodes: big, m: 2, baSeed: 5,
			points: []noc.SimPoint{point("uniform", 0.0004, win10k, 1)}},
		{name: "ba10k-hotspot", compile: "routing.sparse_compile", nodes: big, m: 2, baSeed: 5,
			points: []noc.SimPoint{point(hot, 0.0001, winHot, 2)}},
	}}
	// Each request reaches the batch layer in its wire form; decode it
	// from JSON and check it against the topology it names, so that no
	// operation of a pass fails on a bad input.
	for i := range f.cases {
		c := &f.cases[i]
		enc, err := json.Marshal(noc.SimRequest{
			Archs:  []noc.SimArch{{Name: c.name, BA: fmt.Sprintf("%d:%d:%d", c.nodes, c.m, c.baSeed)}},
			Points: c.points,
		})
		if err != nil {
			return nil, err
		}
		c.req = new(noc.SimRequest)
		if err := json.Unmarshal(enc, c.req); err != nil {
			return nil, err
		}
		g, err := randgraph.BarabasiAlbert(c.nodes, c.m, 8, 64, c.baSeed)
		if err != nil {
			return nil, err
		}
		if !g.WeaklyConnected() {
			return nil, fmt.Errorf("%s: topology is disconnected", c.name)
		}
		for _, p := range c.req.Points {
			if _, err := noc.NewPattern(p.Pattern, g.NodeCount()); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	return f, nil
}

func (f *simFixture) close()                          {}
func (f *simFixture) verify(context.Context) []string { return nil }

func (f *simFixture) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	pr := &passResult{}
	pool := noc.NewNetworkPool()
	lane := tr.begin(-1, "lane")
	defer tr.end(lane)
	var model [][]noc.RatePoint
	for _, c := range f.cases {
		pr.attempted += 2
		t0 := time.Now()
		sp := tr.begin(lane, "noc.build_batch", subLayer{"repro/internal/routing.", c.compile})
		b, err := noc.BuildBatch(c.req)
		tr.end(sp)
		if err != nil {
			pr.fail("%s: build batch: %v", c.name, err)
			continue
		}
		b.Pool, b.Parallelism = pool, 1
		cold, err := f.run(ctx, tr, lane, pr, b, t0)
		if err != nil {
			pr.fail("%s: cold run: %v", c.name, err)
			continue
		}
		lazy := b.Archs[0].Table.LazyCompiles()
		tr.count("routing.lazy_compiles", float64(lazy))
		warm, err := f.run(ctx, tr, lane, pr, b, time.Now())
		if err != nil {
			pr.fail("%s: warm run: %v", c.name, err)
			continue
		}
		tr.count("routing.lazy_compiles_warm", float64(b.Archs[0].Table.LazyCompiles()-lazy))
		tr.count("routing.table_mb", float64(b.Archs[0].Table.MemoryFootprint())/1e6)
		coldJSON, err := json.Marshal(cold)
		if err != nil {
			return nil, err
		}
		if warmJSON, err := json.Marshal(warm); err != nil {
			return nil, err
		} else if !bytes.Equal(coldJSON, warmJSON) {
			pr.fail("%s: warm pass differs from cold pass", c.name)
		}
		if c.golden {
			if err := f.checkGolden(cold[0]); err != nil {
				pr.fail("%s: %v", c.name, err)
			}
		}
		model = append(model, cold)
	}
	enc, err := json.Marshal(model)
	if err != nil {
		return nil, err
	}
	pr.model = enc
	return pr, nil
}

// run runs the batch once as one request that started at t0.
func (f *simFixture) run(ctx context.Context, tr *tracer, lane int, pr *passResult, b *noc.Batch, t0 time.Time) ([]noc.RatePoint, error) {
	hops := make([]int64, len(b.Points))
	var first time.Duration
	b.OnPoint = func(i int, net *noc.Network) {
		st := net.Stats()
		hops[i] = st.TotalLinkTraversals()
		if i == 0 {
			first = time.Since(t0)
		}
		pt := b.Points[i]
		tr.count("noc.injected", float64(st.Injected))
		tr.count("routing.plan_misses", float64(st.PlanMisses))
		tr.count("noc.cycles", float64(pt.WarmupCycles+pt.MeasureCycles))
		routers := float64(len(net.Nodes()))
		tr.count("noc.switch_flits", float64(st.TotalSwitchTraversals()))
		tr.count("noc.router_cycles", routers*float64(pt.MeasureCycles))
		// Stats lists only routers whose crossbar moved a flit in the
		// measured window: the routers the kernel had work for.
		tr.count("noc.busy_routers", float64(len(st.SwitchTraversals)))
		tr.count("noc.routers", routers)
	}
	t1 := time.Now()
	// The span's own layer is the kernel: stepping and injection.
	sp := tr.begin(lane, "noc.step",
		subLayer{"repro/internal/noc.GenerateTraceInto", "noc.gen"},
		subLayer{"repro/internal/noc.(*Network).Reset", "noc.reset"},
		subLayer{"repro/internal/noc.NewCompiled", "noc.acquire"},
		subLayer{"repro/internal/routing.(*lazyPlans).plan", "routing.lazy_compile"})
	points, err := b.Run(ctx)
	tr.end(sp)
	tr.count("noc.batch_run_s", time.Since(t1).Seconds())
	pr.simSecs += time.Since(t1).Seconds()
	if err != nil {
		return nil, err
	}
	pr.lat = append(pr.lat, time.Since(t0).Seconds())
	pr.first = append(pr.first, first.Seconds())
	for _, h := range hops {
		pr.flitHops += h
	}
	return points, nil
}

// checkGolden encodes the golden point's result the way noc.RunSim does
// and compares it with the committed fixture.
func (f *simFixture) checkGolden(pt noc.RatePoint) error {
	res := noc.SimResponse{Points: []noc.SimPointResult{{Arch: goldenPoint.Arch, Pattern: goldenPoint.Pattern, RatePoint: pt}}}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), f.golden) {
		return fmt.Errorf("golden point differs from %s:\n%s", goldenBA1k, buf.Bytes())
	}
	return nil
}
