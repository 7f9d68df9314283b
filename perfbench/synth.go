package main

// synth_flow: the paper's pipeline end to end. Each ACG is synthesized
// (branch-and-bound decomposition, glue, routing, VC assignment), its
// routing table compiled, and its architecture swept under uniform
// traffic up to saturation; the AES ACG also runs distributed AES-128 on
// the 4x4 mesh and on the synthesized architecture (Section 5.2).
//
// The ACG set is fixed: the AES ACG in links and energy mode, plus one
// Pajek-style Erdős–Rényi graph (p = 0.15) at each of 16, 17 and 18
// nodes, from the first generator seed that gives a connected graph.
// Solve cost depends strongly on graph structure (0.05 s to 8 s at 18 to
// 20 nodes), so drawing the graphs from --seed would make pass_s measure
// the draw rather than the code; --seed drives the sweep traffic instead.
// n = 19 and 20 take 2 to 3 s each, which would leave a 35 s run only a
// handful of passes; larger graphs hit the solver timeout, and a
// timed-out solve measures only the timeout.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/randgraph"
	"repro/internal/routing"

	repro "repro"
)

type synthCase struct {
	name    string
	acg     *repro.Graph
	opts    repro.Options
	pattern *noc.Pattern
	aes     bool // also run the Section 5.2 AES comparison
}

type synthFixture struct {
	seed            int64
	cases           []synthCase
	placement       *repro.Placement
	rates           []float64
	warmup, measure int64
	blocks          int
}

// aesNetConfig is the prototype router of the paper's Section 5.2.
var aesNetConfig = noc.Config{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}

func setupSynth(seed int64, size sizing) (fixture, error) {
	lib := repro.DefaultLibrary()
	f := &synthFixture{
		seed:      seed,
		placement: repro.GridPlacement(16, 1, 1, 0.2),
		rates:     []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32},
		warmup:    300,
		measure:   2000,
		blocks:    10,
	}
	erSizes := []int{16, 17, 18}
	if size == tiny {
		erSizes = []int{12}
		f.rates, f.warmup, f.measure, f.blocks = []float64{0.02, 0.32}, 100, 300, 2
	}
	aesACG := repro.AESACG(0.1)
	for _, mode := range []struct {
		name string
		mode repro.CostMode
	}{{"aes-links", repro.CostLinks}, {"aes-energy", repro.CostEnergy}} {
		f.cases = append(f.cases, synthCase{
			name: mode.name, acg: aesACG, aes: mode.mode == repro.CostLinks,
			opts: repro.Options{Library: lib, Placement: f.placement, Mode: mode.mode, Timeout: 30 * time.Second, Parallelism: 1},
		})
	}
	for _, n := range erSizes {
		g, err := connectedER(n)
		if err != nil {
			return nil, err
		}
		f.cases = append(f.cases, synthCase{
			name: g.Name(), acg: g,
			opts: repro.Options{Library: lib, Mode: repro.CostLinks, Timeout: 20 * time.Second, IsoTimeout: 2 * time.Second, Parallelism: 1},
		})
	}
	for i := range f.cases {
		c := &f.cases[i]
		pat, err := noc.UniformPattern(c.acg.NodeCount())
		if err != nil {
			return nil, err
		}
		c.pattern = pat
	}
	return f, nil
}

// connectedER returns the first weakly connected ErdosRenyi(n, 0.15)
// graph over generator seeds 1, 2, ...; a disconnected ACG synthesizes
// to a disconnected architecture, which has no routes.
func connectedER(n int) (*repro.Graph, error) {
	for s := int64(1); s <= 100; s++ {
		g, err := randgraph.ErdosRenyi(n, 0.15, 8, 64, s)
		if err != nil {
			return nil, err
		}
		if g.WeaklyConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no connected ErdosRenyi(%d, 0.15) graph in 100 seeds", n)
}

func (f *synthFixture) close()                          {}
func (f *synthFixture) verify(context.Context) []string { return nil }

// synthModel is the model output of one ACG's flow.
type synthModel struct {
	Name          string                 `json:"name"`
	Decomposition json.RawMessage        `json:"decomposition"`
	Sweep         []noc.RatePoint        `json:"sweep"`
	AES           []*repro.AESComparison `json:"aes,omitempty"`
}

func (f *synthFixture) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	pr := &passResult{}
	lane := tr.begin(-1, "lane")
	defer tr.end(lane)
	var models []synthModel
	for i, c := range f.cases {
		pr.attempted++
		t0 := time.Now()
		res, err := f.synthesize(ctx, tr, lane, c)
		pr.first = append(pr.first, time.Since(t0).Seconds())
		if err != nil {
			pr.fail("%s: synthesize: %v", c.name, err)
			continue
		}
		if res.Stats.TimedOut {
			pr.fail("%s: solve timed out", c.name)
			continue
		}
		if c.name == "aes-links" {
			if err := checkFig6(res.Decomposition); err != nil {
				pr.fail("%s: %v", c.name, err)
			}
		}
		tr.count("core.nodes", float64(res.Stats.NodesExplored))
		tr.count("core.pruned", float64(res.Stats.BranchesPruned))
		tr.count("core.branches", float64(res.Stats.NodesExplored+res.Stats.BranchesPruned))
		tr.count("core.iso_cache_hits", float64(res.Stats.IsoCacheHits))
		tr.count("core.iso_lookups", float64(res.Stats.IsoCacheHits+res.Stats.IsoCacheMisses))
		tr.count("iso.enumerations", float64(res.Stats.IsoCacheMisses))
		tr.count("iso.matches", float64(res.Stats.MatchingsTried))

		sp := tr.begin(lane, "routing.dense_compile")
		ct, err := res.CompiledRouting()
		tr.end(sp)
		if err != nil {
			pr.fail("%s: compile routing: %v", c.name, err)
			continue
		}
		m := synthModel{Name: c.name}
		t1 := time.Now()
		m.Sweep, err = f.sweep(ctx, tr, lane, pr, c, res.Architecture, ct, i)
		if err != nil {
			pr.fail("%s: sweep: %v", c.name, err)
			continue
		}
		if c.aes {
			if m.AES, err = f.runAES(tr, lane, pr, res); err != nil {
				pr.fail("%s: %v", c.name, err)
				continue
			}
			mesh, custom := m.AES[0], m.AES[1]
			pr.info = map[string]any{
				"aes_cycles_per_block":    map[string]float64{"mesh": mesh.CyclesPerBlock, "custom": custom.CyclesPerBlock},
				"aes_throughput_gain_pct": 100 * (custom.ThroughputMbps/mesh.ThroughputMbps - 1),
				"aes_energy_cut_pct":      100 * (1 - custom.EnergyPerBlock/mesh.EnergyPerBlock),
				"paper_pct":               map[string]float64{"throughput_gain": 36, "energy_cut": 51},
			}
		}
		pr.simSecs += time.Since(t1).Seconds()
		pr.lat = append(pr.lat, time.Since(t0).Seconds())

		// The solver statistics depend on worker timing; the rest of the
		// result is the model output.
		res.Stats = core.Stats{}
		if m.Decomposition, err = res.EncodeJSON(); err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	model, err := json.Marshal(models)
	if err != nil {
		return nil, err
	}
	pr.model = model
	return pr, nil
}

// synthesize runs repro.SynthesizeContext. Traced, one core.solve span
// covers the call and CPU samples split it into the solver, VF2, glue
// and routing layers.
func (f *synthFixture) synthesize(ctx context.Context, tr *tracer, lane int, c synthCase) (*repro.Result, error) {
	sp := tr.begin(lane, "core.solve",
		subLayer{"repro/internal/iso.", "iso.findall"},
		subLayer{"repro/internal/topology.FromDecomposition", "topology.glue"},
		subLayer{"repro/internal/routing.Build", "routing.build"},
		subLayer{"repro/internal/routing.AssignVirtualChannels", "routing.build"})
	defer tr.end(sp)
	return repro.SynthesizeContext(ctx, c.acg, c.opts)
}

// checkFig6 checks the paper's Figure 6 decomposition of the AES ACG:
// four MGG4 column gossips, two L4 row loops and the four row-3 swap
// edges left as remainder, at link cost 28.
func checkFig6(d *repro.Decomposition) error {
	count := map[string]int{}
	for _, m := range d.Matches {
		count[m.Primitive.Name]++
	}
	rem := 0
	if d.Remainder != nil {
		rem = d.Remainder.EdgeCount()
	}
	if d.Cost != 28 || len(d.Matches) != 6 || count["MGG4"] != 4 || count["L4"] != 2 || rem != 4 {
		return fmt.Errorf("AES decomposition cost %g, matches %v, remainder %d edges; want Fig. 6 (28, 4xMGG4 + 2xL4, 4)",
			d.Cost, count, rem)
	}
	return nil
}

// sweep runs the uniform saturation sweep, one noc.Sweep call per rate
// so that each point's link traversals can be read off the network.
func (f *synthFixture) sweep(ctx context.Context, tr *tracer, lane int, pr *passResult, c synthCase,
	arch *repro.Architecture, ct *routing.CompiledTable, idx int) ([]noc.RatePoint, error) {
	var net *noc.Network
	newNet := func() (*noc.Network, error) {
		if net != nil {
			net.Reset()
			return net, nil
		}
		var err error
		net, err = noc.NewCompiled(noc.DefaultConfig(), arch, ct)
		return net, err
	}
	sp := tr.begin(lane, "noc.sweep")
	defer tr.end(sp)
	var points []noc.RatePoint
	for i, r := range f.rates {
		res, err := noc.Sweep(ctx, newNet, noc.SweepConfig{
			Pattern: c.pattern, Bits: 128, Rates: []float64{r},
			WarmupCycles: f.warmup, MeasureCycles: f.measure,
			Seed: noc.PointSeed(f.seed*64+int64(idx), i), Parallelism: 1,
		})
		if err != nil {
			return nil, err
		}
		points = append(points, res.Points...)
		pr.flitHops += net.Stats().TotalLinkTraversals()
	}
	return points, nil
}

// runAES encrypts on the 4x4 mesh and on the synthesized architecture;
// RunAES checks every ciphertext against the reference cipher.
func (f *synthFixture) runAES(tr *tracer, lane int, pr *passResult, res *repro.Result) ([]*repro.AESComparison, error) {
	sp := tr.begin(lane, "aes.run")
	defer tr.end(sp)
	meshNet, meshArch, err := repro.MeshNetwork(4, 4, f.placement, aesNetConfig)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	mesh, err := repro.RunAES(meshNet, "mesh 4x4", f.blocks, repro.Tech180)
	if err != nil {
		return nil, fmt.Errorf("AES on mesh: %w", err)
	}
	mesh.Links = meshArch.LinkCount()
	customNet, err := res.NewNetwork(aesNetConfig)
	if err != nil {
		return nil, fmt.Errorf("custom network: %w", err)
	}
	custom, err := repro.RunAES(customNet, "custom", f.blocks, repro.Tech180)
	if err != nil {
		return nil, fmt.Errorf("AES on custom: %w", err)
	}
	custom.Links = res.Architecture.LinkCount()
	pr.flitHops += meshNet.Stats().TotalLinkTraversals() + customNet.Stats().TotalLinkTraversals()
	return []*repro.AESComparison{mesh, custom}, nil
}
