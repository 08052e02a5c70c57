// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 7) plus the motivating measurements (Figs. 2 and 4) on
// the simulated substrate. Each generator returns a Report whose rows are
// the series the paper plots; cmd/hap-bench prints them. The simulator is
// deterministic, so the full-size tables are pinned cell for cell in the
// repository's FIGURES.txt (TestFiguresGolden; regenerate with
// `go test ./internal/experiments -run TestFiguresGolden -update-figures`).
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"hap/internal/baselines"
	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/cost"
	"hap/internal/graph"
	"hap/internal/hapopt"
	"hap/internal/models"
	"hap/internal/sim"
	"hap/internal/synth"
	"hap/internal/theory"
)

// Report is a printable experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var l strings.Builder
		for i, cell := range cells {
			fmt.Fprintf(&l, "%-*s  ", widths[i], cell)
		}
		b.WriteString(strings.TrimRight(l.String(), " "))
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Quick reduces problem sizes for fast runs (unit tests); full runs use the
// paper's scales.
type Config struct {
	Quick bool
}

func (c Config) gpuScalesHet() []int {
	if c.Quick {
		return []int{1}
	}
	return []int{1, 2, 4, 8} // ×8 machines ⇒ 8,16,32,64 GPUs (Fig. 13)
}

func (c Config) gpuScalesHom() []int {
	if c.Quick {
		return []int{2}
	}
	return []int{2, 4, 6, 8} // ×4 machines ⇒ 8,16,24,32 GPUs (Fig. 14)
}

// buildModel constructs a (possibly reduced) training graph for a benchmark.
func (c Config) buildModel(m models.PaperModel, devices int) *graph.Graph {
	if !c.Quick {
		return models.Build(m, devices)
	}
	// Quick mode: third-scale models with the same structure.
	batch := models.PerDeviceBatch(m) * devices
	switch m {
	case models.ModelVGG19:
		return models.Training(models.VGG19(batch, 64, 10))
	case models.ModelViT:
		cfg := models.ViTConfig()
		cfg.Layers = 3
		return models.Training(models.ViT(cfg, batch*cfg.SeqLen/4, 16*16*3, 10))
	case models.ModelBERTBase:
		cfg := models.BERTBase()
		cfg.Layers = 4
		cfg.Vocab = 8192
		return models.Training(models.BERT(cfg, batch*32))
	case models.ModelBERTMoE:
		cfg := models.BERTMoE(devices)
		cfg.Layers = 4
		cfg.Vocab = 8192
		return models.Training(models.BERT(cfg, batch*32))
	}
	panic("unknown model")
}

func (c Config) hapOpts() hapopt.Options {
	o := hapopt.Options{Synth: synth.Auto()}
	if c.Quick {
		o.MaxIterations = 2
	}
	return o
}

// runHAP optimizes with HAP and returns the simulated iteration time.
func (c Config) runHAP(g *graph.Graph, cl *cluster.Cluster, seed int64) (float64, *hapopt.Result, error) {
	res, err := hapopt.Optimize(context.Background(), g, cl, c.hapOpts())
	if err != nil {
		return 0, nil, err
	}
	return sim.IterationTime(cl, res.Program, res.Ratios, seed), res, nil
}

func simPlan(cl *cluster.Cluster, p *baselines.Plan, seed int64) string {
	if p.OOM {
		return "OOM"
	}
	return f3(sim.IterationTime(cl, p.Program, p.Ratios, seed))
}

// Table1 reports the benchmark models' parameter counts.
func Table1(c Config) *Report {
	r := &Report{ID: "table1", Title: "Benchmark models",
		Header: []string{"model", "task", "params(M)", "paper(M)"}}
	rows := []struct {
		m     models.PaperModel
		task  string
		paper string
		g     *graph.Graph
	}{
		{models.ModelVGG19, "Image Classification", "133", models.VGG19(1, 224, 10)},
		{models.ModelViT, "Image Classification", "54", models.ViT(models.ViTConfig(), 197, 768, 10)},
		{models.ModelBERTBase, "Language Model", "102", models.BERT(models.BERTBase(), 128)},
		{models.ModelBERTMoE, "Language Model", "84+36m (ours: 84+28m)", models.BERT(models.BERTMoE(8), 128)},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{string(row.m), row.task,
			fmt.Sprintf("%.1f", float64(row.g.ParameterCount())/1e6), row.paper})
	}
	return r
}

// Fig2 sweeps the computation-to-communication ratio of an FC layer on the
// P100+A100 pair and compares CP and EV sharding ratios (Sec. 2.4).
func Fig2(c Config) *Report {
	r := &Report{ID: "fig2", Title: "CP vs EV under varying computation-to-communication ratio",
		Header: []string{"batch", "comp/comm", "CP(ms)", "EV(ms)"}}
	cl := cluster.PaperP100A100Pair()
	// Under data parallelism both computation and gradient volume scale
	// with hidden², so the computation-to-communication ratio is steered by
	// the batch size (the paper steers it with the hidden dim under model
	// parallelism; the trade-off probed is the same).
	batches := []int{64, 256, 1024, 4096, 16384}
	if c.Quick {
		batches = []int{64, 1024, 16384}
	}
	const h = 512
	for _, batch := range batches {
		g := models.Training(models.MLP(batch, h, h, h))
		p, err := baselines.DPCP(g, cl)
		if err != nil {
			continue
		}
		bcp := cost.UniformRatios(1, cl.ProportionalRatios())
		cp := cost.Evaluate(cl, p.Program, bcp)
		ev := cost.Evaluate(cl, p.Program, cost.UniformRatios(1, cl.EvenRatios()))
		// Communication at the CP ratios: a reduce-scatter or padded
		// all-gather stage also pays a term in the largest ratio, which is
		// communication, not computation.
		comm := 0.0
		for _, st := range cost.Extract(cl, p.Program).Stages {
			comm += st.CommConst + st.CommMaxCoef*slices.Max(bcp[st.CommSeg])
		}
		ratio := 0.0
		if comm > 0 {
			ratio = (cp - comm) / comm
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(batch), f3(ratio), f3(cp * 1e3), f3(ev * 1e3)})
	}
	return r
}

// Fig4 sweeps shard skew for a 4 MB tensor and reports the effective
// bandwidth of padded All-Gather vs grouped Broadcast (Sec. 2.5.1).
func Fig4(c Config) *Report {
	r := &Report{ID: "fig4", Title: "Padded All-Gather vs grouped Broadcast (4MB tensor)",
		Header: []string{"maxRatio", "padded(GB/s)", "grouped(GB/s)"}}
	cl := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.A100, GPUs: 2},
		cluster.MachineSpec{Type: cluster.A100, GPUs: 2})
	const bytes = 4 << 20
	step := 0.05
	if c.Quick {
		step = 0.15
	}
	for mr := 0.25; mr <= 1.0001; mr += step {
		rest := (1 - mr) / 3
		ratios := []float64{mr, rest, rest, rest}
		pad := collective.Time(cl, collective.PaddedAllGather, bytes, ratios)
		grp := collective.Time(cl, collective.GroupedBroadcast, bytes, ratios)
		r.Rows = append(r.Rows, []string{f3(mr), f3(bytes / pad / 1e9), f3(bytes / grp / 1e9)})
	}
	return r
}

// systemsRow runs all systems on one model×cluster point.
func (c Config) systemsRow(m models.PaperModel, cl *cluster.Cluster, devices int, withCP bool) []string {
	g := c.buildModel(m, devices)
	row := []string{string(m), fmt.Sprint(cl.TotalGPUs())}
	if hapT, _, err := c.runHAP(g, cl, 1); err == nil {
		row = append(row, f3(hapT))
	} else {
		row = append(row, "ERR")
	}
	if p, err := baselines.DPEV(g, cl); err == nil {
		row = append(row, simPlan(cl, p, 2))
	} else {
		row = append(row, "ERR")
	}
	if withCP {
		if p, err := baselines.DPCP(g, cl); err == nil {
			row = append(row, simPlan(cl, p, 3))
		} else {
			row = append(row, "ERR")
		}
	}
	if p, err := baselines.DeepSpeed(g, cl); err == nil {
		row = append(row, simPlan(cl, p, 4))
	} else {
		row = append(row, "ERR")
	}
	// TAG runs only on VGG19 and BERT-Base (Sec. 7.1).
	if m == models.ModelVGG19 || m == models.ModelBERTBase {
		if p, err := baselines.TAG(g, cl); err == nil {
			row = append(row, simPlan(cl, p, 5))
		} else {
			row = append(row, "ERR")
		}
	} else {
		row = append(row, "-")
	}
	return row
}

// Fig13 reproduces per-iteration time on the heterogeneous cluster.
func Fig13(c Config) *Report {
	r := &Report{ID: "fig13", Title: "Per-iteration time, heterogeneous cluster (2×8 V100 + 6×8 P100)",
		Header: []string{"model", "GPUs", "HAP(s)", "DP-EV(s)", "DP-CP(s)", "DeepSpeed(s)", "TAG(s)"}}
	for _, m := range models.AllPaperModels {
		for _, k := range c.gpuScalesHet() {
			cl := cluster.PaperHeterogeneous(k)
			r.Rows = append(r.Rows, c.systemsRow(m, cl, cl.TotalGPUs(), true))
		}
	}
	return r
}

// Fig14 reproduces per-iteration time on the homogeneous subset.
func Fig14(c Config) *Report {
	r := &Report{ID: "fig14", Title: "Per-iteration time, homogeneous cluster (4×8 P100)",
		Header: []string{"model", "GPUs", "HAP(s)", "DP-EV(s)", "DeepSpeed(s)", "TAG(s)"}}
	for _, m := range models.AllPaperModels {
		for _, k := range c.gpuScalesHom() {
			cl := cluster.PaperHomogeneous(k)
			r.Rows = append(r.Rows, c.systemsRow(m, cl, cl.TotalGPUs(), false))
		}
	}
	return r
}

// Fig15 reproduces the ablation study: DP-EV → +Q → +B → +C throughput.
func Fig15(c Config) *Report {
	r := &Report{ID: "fig15", Title: "Ablation: throughput relative to DP-EV (%)",
		Header: []string{"model", "DP-EV", "+Q", "+QB", "+QBC"}}
	k := 8
	if c.Quick {
		k = 1
	}
	cl := cluster.PaperHeterogeneous(k)
	for _, m := range models.AllPaperModels {
		g := c.buildModel(m, cl.TotalGPUs())
		base := math.Inf(1)
		if p, err := baselines.DPEV(g, cl); err == nil && !p.OOM {
			base = sim.IterationTime(cl, p.Program, p.Ratios, 10)
		}
		noOpt := synth.Auto()
		noOpt.DisableGroupedBroadcast = true
		noOpt.DisableSFB = true
		variant := func(o hapopt.Options) string {
			res, err := hapopt.Optimize(context.Background(), g, cl, o)
			if err != nil {
				return "ERR"
			}
			t := sim.IterationTime(cl, res.Program, res.Ratios, 10)
			if math.IsInf(base, 1) {
				return "DP-OOM/" + f3(t)
			}
			return fmt.Sprintf("%.0f", base/t*100)
		}
		q := variant(hapopt.Options{Synth: noOpt, SkipBalance: true,
			InitialRatios: cl.EvenRatios(), MaxIterations: c.hapOpts().MaxIterations})
		qb := variant(hapopt.Options{Synth: noOpt, MaxIterations: c.hapOpts().MaxIterations})
		qbc := variant(c.hapOpts())
		r.Rows = append(r.Rows, []string{string(m), "100", q, qb, qbc})
	}
	return r
}

// Fig16 compares HAP on the whole heterogeneous cluster against training
// two models concurrently on homogeneous subclusters.
func Fig16(c Config) *Report {
	r := &Report{ID: "fig16", Title: "HAP vs concurrent subcluster training (total throughput %)",
		Header: []string{"model", "concurrent(V100)", "concurrent(P100)", "HAP(%)"}}
	k := 8
	if c.Quick {
		k = 1
	}
	full := cluster.PaperHeterogeneous(k)
	v100s := cluster.FromMachines(cluster.DefaultNetwork(), k,
		cluster.MachineSpec{Type: cluster.V100, GPUs: 8}, cluster.MachineSpec{Type: cluster.V100, GPUs: 8})
	p100s := cluster.FromMachines(cluster.DefaultNetwork(), k,
		cluster.MachineSpec{Type: cluster.P100, GPUs: 8}, cluster.MachineSpec{Type: cluster.P100, GPUs: 8},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 8}, cluster.MachineSpec{Type: cluster.P100, GPUs: 8},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 8}, cluster.MachineSpec{Type: cluster.P100, GPUs: 8})
	for _, m := range models.AllPaperModels {
		thr := func(cl *cluster.Cluster) float64 {
			g := c.buildModel(m, cl.TotalGPUs())
			t, _, err := c.runHAP(g, cl, 20)
			if err != nil {
				return 0
			}
			return float64(models.PerDeviceBatch(m)*cl.TotalGPUs()) / t
		}
		tv, tp, th := thr(v100s), thr(p100s), thr(full)
		total := tv + tp
		if total == 0 {
			continue
		}
		r.Rows = append(r.Rows, []string{string(m),
			fmt.Sprintf("%.0f", tv/total*100), fmt.Sprintf("%.0f", tp/total*100),
			fmt.Sprintf("%.0f", th/total*100)})
	}
	return r
}

// Fig17 reproduces uneven expert placement: BERT-MoE with 4..32 experts on
// 2×A100 + 2×P100, HAP vs DeepSpeed (which pads experts to a multiple of 4).
func Fig17(c Config) *Report {
	r := &Report{ID: "fig17", Title: "BERT-MoE uneven expert placement (2×A100 + 2×P100)",
		Header: []string{"experts", "HAP(s)", "DeepSpeed(s)", "padded-experts"}}
	cl := cluster.PaperA100P100()
	counts := []int{4, 8, 12, 16, 20, 24, 28, 32}
	layers := 4
	if c.Quick {
		counts = []int{4, 6, 8}
		layers = 2
	}
	for _, e := range counts {
		build := func(experts int) *graph.Graph {
			cfg := models.BERTMoE(4)
			cfg.Experts = experts
			cfg.Layers = layers
			cfg.Vocab = 8192
			// Tokens proportional to experts to keep per-expert load fixed.
			return models.Training(models.BERT(cfg, 256*e))
		}
		row := []string{fmt.Sprint(e)}
		if t, _, err := c.runHAP(build(e), cl, int64(e)); err == nil {
			row = append(row, f3(t))
		} else {
			row = append(row, "ERR")
		}
		padded := baselines.PadExperts(e, cl.M())
		if p, err := baselines.DeepSpeed(build(padded), cl); err == nil {
			row = append(row, simPlan(cl, p, int64(e)), fmt.Sprint(padded))
		} else {
			row = append(row, "ERR", fmt.Sprint(padded))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig18 compares the cost model's estimate against simulated "actual" time
// across BERT variants and reports the Pearson correlation.
func Fig18(c Config) *Report {
	r := &Report{ID: "fig18", Title: "Cost model accuracy (BERT variants)",
		Header: []string{"layers", "hidden", "estimated(s)", "actual(s)"}}
	cl := cluster.PaperHeterogeneous(1)
	layerSet := []int{2, 4, 6, 8}
	hiddenSet := []int{256, 512, 768}
	if c.Quick {
		layerSet = []int{2, 4}
		hiddenSet = []int{256, 512}
	}
	var est, act []float64
	for _, l := range layerSet {
		for _, h := range hiddenSet {
			cfg := models.TransformerConfig{Layers: l, Hidden: h, FFN: 4 * h, SeqLen: 128, Vocab: 8192}
			g := models.Training(models.BERT(cfg, 64*8*32))
			res, err := hapopt.Optimize(context.Background(), g, cl, c.hapOpts())
			if err != nil {
				continue
			}
			e := res.Cost
			a := sim.IterationTime(cl, res.Program, res.Ratios, int64(l*100+h))
			est = append(est, e)
			act = append(act, a)
			r.Rows = append(r.Rows, []string{fmt.Sprint(l), fmt.Sprint(h), f3(e), f3(a)})
		}
	}
	r.Rows = append(r.Rows, []string{"pearson", "", f3(Pearson(est, act)), ""})
	return r
}

// Fig19 measures program-synthesis time as the layer count grows.
func Fig19(c Config) *Report {
	r := &Report{ID: "fig19", Title: "Program synthesis time vs model depth (ViT)",
		Header: []string{"layers", "synthesis(s)", "instructions"}}
	cl := cluster.PaperHeterogeneous(1)
	layerSet := []int{2, 4, 8, 12, 16, 20, 24}
	if c.Quick {
		layerSet = []int{2, 4, 8}
	}
	for _, l := range layerSet {
		cfg := models.ViTConfig()
		cfg.Layers = l
		g := models.Training(models.ViT(cfg, 64*8*cfg.SeqLen/4, 768, 10))
		th := theory.New(g)
		b := cost.UniformRatios(1, cl.ProportionalRatios())
		start := time.Now()
		p, _, err := synth.Synthesize(context.Background(), g, th, cl, b, synth.Auto())
		if err != nil {
			r.Rows = append(r.Rows, []string{fmt.Sprint(l), "ERR", ""})
			continue
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(l),
			f3(time.Since(start).Seconds()), fmt.Sprint(len(p.Instrs))})
	}
	return r
}

// Pearson returns the Pearson correlation coefficient of two series.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		dx += (x[i] - mx) * (x[i] - mx)
		dy += (y[i] - my) * (y[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// All lists the experiment generators by id.
var All = map[string]func(Config) *Report{
	"table1": Table1, "fig2": Fig2, "fig4": Fig4, "fig13": Fig13, "fig14": Fig14,
	"fig15": Fig15, "fig16": Fig16, "fig17": Fig17, "fig18": Fig18, "fig19": Fig19,
}

// Order is the presentation order of experiment ids.
var Order = []string{"table1", "fig2", "fig4", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"}
